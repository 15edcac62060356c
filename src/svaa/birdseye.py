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
from .records import RecordStore, distinct_pairs, human_rows
from .timeutil import (
    US_PER_DAY,
    WINDOW_US,
    date_to_day,
    format_rfc3339,
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


def _project(x, w, h, cam: CameraConfig):
    """(bev_x, bev_y) arrays for boxes' x, w and h in pixels; bev_y = tan(theta_mid) / max(h / height, 0.01)."""
    depth = math.tan(cam.theta_mid_rad) / np.maximum(h / cam.height, MIN_NORMALIZED_H)
    return ((x + w / 2.0) / cam.width - 0.5) * depth, depth


def _averaged_points(
    store: RecordStore,
    camera_id: int,
    cam: CameraConfig,
    t0_us: int,
    t1_us: int,
) -> list[BevPoint]:
    """Per-(window, person) averaged boxes of one camera, projected once each.

    A box past the camera's configured frame is refused with InvalidBBox:
    the projection reads a box's place in the frame, so it has no answer for one.
    """
    if camera_id != cam.camera_id:
        raise CameraMismatch(f"asked for camera {camera_id} with config for {cam.camera_id}")
    times, gids, x, y, w, h = human_rows(store, [cam.camera_id], t0_us, t1_us,
                                         ("times", "global_ids", "x", "y", "w", "h"))
    outside = np.flatnonzero((x + w > cam.width) | (y + h > cam.height))
    if outside.size:
        k = outside[0]
        raise InvalidBBox(f"bbox [{x[k]:g}, {y[k]:g}, {w[k]:g}, {h[k]:g}] at {format_rfc3339(int(times[k]))} does not"
                          f" fit the {cam.width}x{cam.height} frame of camera {cam.camera_id}")
    if not len(times):
        return []
    win = times // WINDOW_US
    order, first = distinct_pairs(win, gids)
    win, gids = win[order], gids[order]
    boxes = np.stack([x[order], w[order], h[order]], axis=1)
    group = np.cumsum(first) - 1
    n_groups = int(group[-1]) + 1
    sums = np.zeros((n_groups, 3))
    np.add.at(sums, group, boxes)
    tallies = np.bincount(group, minlength=n_groups)
    means = sums / tallies[:, None]
    bev_x, bev_y = _project(means[:, 0], means[:, 1], means[:, 2], cam)
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
    ws = window_start(to_us(window_start_at))
    return _averaged_points(store, camera_id, cam, ws, ws + WINDOW_US)


def daily_bev(store: RecordStore, camera_id: int, cam: CameraConfig, day: date) -> list[BevPoint]:
    """Averaged BevPoints for every 5-second window of one UTC calendar day."""
    day_start = date_to_day(day) * US_PER_DAY
    return _averaged_points(store, camera_id, cam, day_start, day_start + US_PER_DAY)
