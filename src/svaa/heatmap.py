"""Daily spatial accumulation grids with Gaussian smoothing and portable renders.

accumulate_grid bins bird's-eye points, the birdseye.BEV_POINT rows of a
day, in one of two ways. Given a GridGeometry it bins into those fixed
bounds and clamps strays to the border, which keeps grids of different days
shape-identical and directly comparable. Without one it sizes the grid from
the data itself (shape = max quantized index + 1 per axis). Smoothing uses
a truncated separable Gaussian whose per-source weights are renormalized
over the in-grid part of the kernel, so total mass is preserved exactly. An
extent grid of more than MAX_GRID_CELLS cells is refused with GridTooLarge
before it is allocated; the configuration bounds a fixed grid to
MAX_GRID_SIDE cells a side, so it stays within the same limit. The numeric
parameters are the caller's to check: the CLI and the configuration refuse
a cell size or gamma that is not positive, and a sigma outside [0,
MAX_GRID_SIDE), before they reach here; a sigma of 0 means no smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .birdseye import MIN_NORMALIZED_H, CameraConfig
from .errors import EmptyInput, GridTooLarge

MAX_GRID_SIDE = 1024  # the most columns or rows of a configured grid
MAX_GRID_CELLS = MAX_GRID_SIDE * MAX_GRID_SIDE  # the most cells of any grid, 8 MiB of float64


@dataclass(frozen=True, slots=True)
class GridGeometry:
    """Fixed grid bounds and resolution, with x_min < x_max, y_min < y_max and at least one cell a side."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_cols: int = 64
    n_rows: int = 64

    @property
    def cell_w(self) -> float:
        return (self.x_max - self.x_min) / self.n_cols

    @property
    def cell_h(self) -> float:
        return (self.y_max - self.y_min) / self.n_rows


def fixed_bounds_for(cam: CameraConfig, n_cols: int = 64, n_rows: int = 64) -> GridGeometry:
    """Default comparison geometry: x in [-D, D], y in [0, D] at the depth clamp D."""
    d_max = math.tan(cam.theta_mid_rad) / MIN_NORMALIZED_H
    return GridGeometry(-d_max, d_max, 0.0, d_max, n_cols, n_rows)


@dataclass(slots=True)
class HeatGrid:
    """Nonnegative accumulation grid; rows advance with bev_y, columns with bev_x."""

    cells: np.ndarray  # (n_rows, n_cols) float64
    x_min: float
    y_min: float
    cell_w: float
    cell_h: float

    @property
    def n_rows(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.cells.shape[1])

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum())


def accumulate_grid(points: np.ndarray, geometry: GridGeometry | None = None, cell_size: float = 1.0) -> HeatGrid:
    """Bin points, by their bev_x and bev_y, into integer per-cell counts.

    With a geometry the grid has its fixed bounds, and a point outside them
    is clamped to the border cell. Without one the grid spans the data's
    extent in cells of cell_size (its origin aligned down to the cell grid)
    and refuses empty input.
    """
    xs, ys = points["bev_x"], points["bev_y"]
    if geometry is not None:
        cell_w, cell_h = geometry.cell_w, geometry.cell_h
        x_min, y_min = geometry.x_min, geometry.y_min
        n_cols, n_rows = geometry.n_cols, geometry.n_rows
        cols = np.clip(np.floor((xs - x_min) / cell_w).astype(np.int64), 0, n_cols - 1)
        rows = np.clip(np.floor((ys - y_min) / cell_h).astype(np.int64), 0, n_rows - 1)
    else:
        if len(points) == 0:
            raise EmptyInput("an extent grid needs at least one point")
        cell_w = cell_h = float(cell_size)
        with np.errstate(over="ignore", invalid="ignore"):  # a tiny cell size overflows; it is refused below
            x_min = np.floor(xs.min() / cell_w) * cell_w
            y_min = np.floor(ys.min() / cell_h) * cell_h
            shape = (np.floor((ys.max() - y_min) / cell_h) + 1, np.floor((xs.max() - x_min) / cell_w) + 1)
        if not (np.isfinite(x_min) and np.isfinite(y_min) and shape[0] * shape[1] <= MAX_GRID_CELLS):
            raise GridTooLarge(f"the grid at cell size {cell_size:g} would have more than {MAX_GRID_CELLS} cells")
        cols = np.floor((xs - x_min) / cell_w).astype(np.int64)
        rows = np.floor((ys - y_min) / cell_h).astype(np.int64)
        n_cols = int(cols.max()) + 1
        n_rows = int(rows.max()) + 1
    cells = np.zeros((n_rows, n_cols), dtype=np.float64)
    np.add.at(cells, (rows, cols), 1.0)
    return HeatGrid(cells, float(x_min), float(y_min), cell_w, cell_h)


@dataclass(frozen=True, slots=True)
class SmoothingSpec:
    """Gaussian smoothing parameters: sigma in cells, kernel truncated at 3 sigma."""

    sigma: float  # positive

    @property
    def radius(self) -> int:
        return math.ceil(3.0 * self.sigma)

    def kernel(self) -> np.ndarray:
        offsets = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        weights = np.exp(-(offsets**2) / (2.0 * self.sigma**2))
        return weights / weights.sum()


def _conv_same(values: np.ndarray, kernel: np.ndarray, radius: int) -> np.ndarray:
    """Centered zero-padded convolution along the last axis, any grid size."""
    full = np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="full"), -1, values)
    return full[..., radius : radius + values.shape[-1]]


def gaussian_smooth(grid: HeatGrid, spec: SmoothingSpec) -> HeatGrid:
    """Separable Gaussian smoothing with mass-preserving edge renormalization.

    Each source cell's mass is redistributed with the truncated kernel
    renormalized over its in-grid support, so sum(cells) is unchanged and no
    cell can go negative. The geometry carries over.
    """
    kernel = spec.kernel()
    radius = spec.radius
    n_rows, n_cols = grid.cells.shape
    coverage_x = _conv_same(np.ones(n_cols), kernel, radius)
    coverage_y = _conv_same(np.ones(n_rows), kernel, radius)
    scaled = grid.cells / np.outer(coverage_y, coverage_x)
    smoothed = _conv_same(scaled, kernel, radius)  # along columns
    smoothed = _conv_same(smoothed.T, kernel, radius).T  # along rows
    return replace(grid, cells=smoothed)


def peak_intensity(grid: HeatGrid) -> float:
    """Maximum cell value; 0 for an all-zero grid."""
    if grid.cells.size == 0:
        return 0.0
    return float(grid.cells.max())


def render_pgm(grid: HeatGrid, gamma: float = 1.0) -> bytes:
    """Plain-text portable graymap (P2), max gray 255, gamma-scaled.

    Cell values map to round(255 * (v / max)**gamma) for a positive gamma;
    an all-zero grid renders all zeros. Output bytes are identical for
    identical inputs.
    """
    vmax = peak_intensity(grid)
    if vmax > 0:
        levels = np.rint(255.0 * np.power(grid.cells / vmax, gamma)).astype(np.int64)
    else:
        levels = np.zeros_like(grid.cells, dtype=np.int64)
    lines = ["P2", f"{grid.n_cols} {grid.n_rows}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in levels.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def render_csv(grid: HeatGrid) -> str:
    """Row-major cell values, nine significant digits per cell."""
    return "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in grid.cells.tolist()
    )
