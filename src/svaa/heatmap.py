"""Daily spatial accumulation grids with Gaussian smoothing and portable renders.

Two accumulation modes: DATA_EXTENT sizes the grid from the data itself
(shape = max quantized index + 1 per axis), FIXED_BOUNDS bins into an
explicit geometry and clamps strays to the border, which keeps grids of
different days shape-identical and directly comparable. Smoothing uses a
truncated separable Gaussian whose per-source weights are renormalized over
the in-grid part of the kernel, so total mass is preserved exactly. A
DATA_EXTENT grid of more than MAX_GRID_CELLS cells is refused with
GridTooLarge before it is allocated; the configuration bounds a fixed grid
to MAX_GRID_SIDE cells a side, so it stays within the same limit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Sequence

import numpy as np

from .birdseye import MIN_NORMALIZED_H, BevPoint, CameraConfig
from .errors import EmptyInput, GridTooLarge

MAX_GRID_SIDE = 1024  # the most columns or rows of a configured grid
MAX_GRID_CELLS = MAX_GRID_SIDE * MAX_GRID_SIDE  # the most cells of any grid, 8 MiB of float64


class Mode(enum.Enum):
    FIXED_BOUNDS = "fixed"
    DATA_EXTENT = "extent"


@dataclass(frozen=True, slots=True)
class GridGeometry:
    """Explicit grid bounds and resolution for FIXED_BOUNDS accumulation."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_cols: int = 64
    n_rows: int = 64

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid bounds must have positive extent")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid must have at least one cell per axis")

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
    camera_id: int | None = None
    day: date | None = None

    @property
    def n_rows(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.cells.shape[1])

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum())


def accumulate_grid(
    points: Sequence[BevPoint],
    mode: Mode,
    geometry: GridGeometry | None = None,
    cell_size: float = 1.0,
    camera_id: int | None = None,
    day: date | None = None,
) -> HeatGrid:
    """Bin BevPoints into integer per-cell counts.

    FIXED_BOUNDS requires a geometry and clamps out-of-bounds points to the
    border cell; DATA_EXTENT derives the extent from the data (grid origin
    aligned down to the cell grid) and refuses empty input.
    """
    xs = np.array([p.bev_x for p in points], dtype=np.float64)
    ys = np.array([p.bev_y for p in points], dtype=np.float64)
    if mode is Mode.FIXED_BOUNDS:
        if geometry is None:
            raise ValueError("FIXED_BOUNDS accumulation needs an explicit geometry")
        cell_w, cell_h = geometry.cell_w, geometry.cell_h
        x_min, y_min = geometry.x_min, geometry.y_min
        n_cols, n_rows = geometry.n_cols, geometry.n_rows
        cols = np.clip(np.floor((xs - x_min) / cell_w).astype(np.int64), 0, n_cols - 1)
        rows = np.clip(np.floor((ys - y_min) / cell_h).astype(np.int64), 0, n_rows - 1)
    else:
        if len(points) == 0:
            raise EmptyInput("DATA_EXTENT accumulation needs at least one point")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
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
    return HeatGrid(cells, float(x_min), float(y_min), cell_w, cell_h, camera_id, day)


@dataclass(frozen=True, slots=True)
class SmoothingSpec:
    """Gaussian smoothing parameters: sigma in cells, kernel truncated at 3 sigma."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

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
    cell can go negative. Geometry and metadata carry over.
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

    Cell values map to round(255 * (v / max)**gamma); an all-zero grid
    renders all zeros. Output bytes are identical for identical inputs.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
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
