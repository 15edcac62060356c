"""Ground-plane projection of detection boxes.

A person's normalized image height acts as an inverse-depth proxy: depth is
tan(mid field-of-view angle) / normalized height, and the lateral offset is
proportional to depth (pinhole geometry). Taller-in-image means nearer;
horizontally centered boxes land on the camera axis. Within one 5-second
window all boxes of one person are averaged first and projected once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import CameraMismatch, InvalidBBox, InvalidConfig
from .records import HUMAN_CLASS, DetectionRecord, RecordStore, distinct_pairs
from .timeutil import (
    US_PER_DAY,
    WINDOW_US,
    date_to_day,
    from_us,
    to_us,
    window_start,
)

MIN_NORMALIZED_H = 0.01  # depth clamp for degenerate 1-pixel boxes


@dataclass(frozen=True, slots=True)
class CameraConfig:
    """Resolution, angular field-of-view span, and location label of one camera."""

    camera_id: int
    width: int
    height: int
    min_teta: float  # degrees, nearest-edge view angle
    max_teta: float  # degrees, farthest-edge view angle
    location: str = ""

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidConfig(f"camera {self.camera_id}: resolution must be positive")
        if not 0 < self.min_teta < self.max_teta < 90:
            raise InvalidConfig(
                f"camera {self.camera_id}: need 0 < min_teta < max_teta < 90, "
                f"got {self.min_teta}..{self.max_teta}"
            )

    @property
    def theta_mid_rad(self) -> float:
        return math.radians((self.min_teta + self.max_teta) / 2.0)


@dataclass(frozen=True, slots=True)
class BevPoint:
    """Ground-plane position of one person in one 5-second window.

    bev_x is signed with 0 on the camera axis; bev_y grows with distance.
    """

    global_id: int
    window_start: datetime
    bev_x: float
    bev_y: float


def scale_factor(normalized_h: float, cam: CameraConfig) -> float:
    """Depth proxy tan(theta_mid) / max(normalized_h, 0.01).

    Strictly decreasing in normalized height above the clamp: objects that
    appear smaller are placed farther away.
    """
    return math.tan(cam.theta_mid_rad) / max(normalized_h, MIN_NORMALIZED_H)


def _project(x, w, h, cam: CameraConfig):
    """Shared projection kernel for a box's x, w and h in pixels; accepts scalars or numpy arrays."""
    depth = math.tan(cam.theta_mid_rad) / np.maximum(h / cam.height, MIN_NORMALIZED_H)
    return ((x + w / 2.0) / cam.width - 0.5) * depth, depth


def bev_transform(record: DetectionRecord, cam: CameraConfig) -> BevPoint:
    """Project a single record's box into the camera's ground frame."""
    if record.camera_id != cam.camera_id:
        raise CameraMismatch(f"record from camera {record.camera_id}, config for {cam.camera_id}")
    b = record.bbox
    if b.w <= 0 or b.h <= 0 or b.x < 0 or b.y < 0 or b.x + b.w > cam.width or b.y + b.h > cam.height:
        raise InvalidBBox(f"bbox {b} does not fit a {cam.width}x{cam.height} frame")
    bev_x, bev_y = _project(b.x, b.w, b.h, cam)
    return BevPoint(
        global_id=record.global_id,
        window_start=from_us(window_start(record.time_us)),
        bev_x=float(bev_x),
        bev_y=float(bev_y),
    )


def _averaged_points(
    store: RecordStore,
    cam: CameraConfig,
    t0_us: int,
    t1_us: int,
) -> list[BevPoint]:
    """Per-(window, person) averaged boxes of one camera, projected once each."""
    idx = store.index(cam.camera_id)
    lo, hi = idx.slice(t0_us, t1_us)
    mask = idx.class_ids[lo:hi] == HUMAN_CLASS
    if not mask.any():
        return []
    times = idx.times[lo:hi][mask]
    gids = idx.global_ids[lo:hi][mask]
    win = times // WINDOW_US
    order, first = distinct_pairs(win, gids)
    win, gids = win[order], gids[order]
    boxes = np.stack(
        [idx.x[lo:hi][mask][order], idx.y[lo:hi][mask][order], idx.w[lo:hi][mask][order], idx.h[lo:hi][mask][order]],
        axis=1,
    )
    group = np.cumsum(first) - 1
    n_groups = int(group[-1]) + 1
    sums = np.zeros((n_groups, 4))
    np.add.at(sums, group, boxes)
    tallies = np.bincount(group, minlength=n_groups)
    means = sums / tallies[:, None]
    bev_x, bev_y = _project(means[:, 0], means[:, 2], means[:, 3], cam)
    win_first = win[first] * WINDOW_US
    gid_first = gids[first]
    return [
        BevPoint(int(g), from_us(int(ws)), float(bx), float(by))
        for g, ws, bx, by in zip(gid_first.tolist(), win_first.tolist(), bev_x.tolist(), bev_y.tolist())
    ]


def window_bev(
    store: RecordStore,
    camera_id: int,
    cam: CameraConfig,
    window_start_at: datetime,
) -> list[BevPoint]:
    """One BevPoint per distinct person in the given 5-second window.

    All of a person's boxes in the window are averaged component-wise and
    the averaged box is projected once, so the output length equals the
    window's distinct-person count.
    """
    if camera_id != cam.camera_id:
        raise CameraMismatch(f"asked for camera {camera_id} with config for {cam.camera_id}")
    ws = window_start(to_us(window_start_at))
    return _averaged_points(store, cam, ws, ws + WINDOW_US)


def daily_bev(store: RecordStore, camera_id: int, cam: CameraConfig, day: date) -> list[BevPoint]:
    """Averaged BevPoints for every 5-second window of one UTC calendar day."""
    if camera_id != cam.camera_id:
        raise CameraMismatch(f"asked for camera {camera_id} with config for {cam.camera_id}")
    day_start = date_to_day(day) * US_PER_DAY
    return _averaged_points(store, cam, day_start, day_start + US_PER_DAY)
