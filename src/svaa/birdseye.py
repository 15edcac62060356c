"""Ground-plane projection of detection boxes.

A person's normalized image height acts as an inverse-depth proxy: depth is
tan(mid field-of-view angle) / normalized height, and the lateral offset is
proportional to depth (pinhole geometry). Taller-in-image means nearer;
horizontally centered boxes land on the camera axis. Within one 5-second
window all boxes of one person are averaged first and projected once, to
one BEV_POINT row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CameraMismatch, InvalidBBox, InvalidConfig
from .records import RecordStore, distinct_pairs, human_rows
from .timeutil import US_PER_DAY, WINDOW_US, format_rfc3339, window_start

MIN_NORMALIZED_H = 0.01  # depth clamp for degenerate 1-pixel boxes
# The ground-plane position of one person in one 5-second window: bev_x is signed with 0 on the camera
# axis, and bev_y grows with distance.
BEV_POINT = np.dtype([("window_us", "i8"), ("global_id", "i8"), ("bev_x", "f8"), ("bev_y", "f8")])


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
        if not 0 < self.min_teta < self.max_teta < 90 or self.theta_mid_rad == 0:  # 0 for subnormal angles
            raise InvalidConfig(
                f"camera {self.camera_id}: need 0 < min_teta < max_teta < 90 and a mid angle above 0 radians, "
                f"got {self.min_teta}..{self.max_teta}"
            )

    @property
    def theta_mid_rad(self) -> float:
        return math.radians((self.min_teta + self.max_teta) / 2.0)


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
) -> np.ndarray:
    """BEV_POINT rows of one camera's per-(window, person) averaged boxes, in window then person order.

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
        return np.zeros(0, dtype=BEV_POINT)
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
    points = np.empty(n_groups, dtype=BEV_POINT)
    points["window_us"] = win[first] * WINDOW_US
    points["global_id"] = gids[first]
    points["bev_x"], points["bev_y"] = _project(means[:, 0], means[:, 1], means[:, 2], cam)
    return points


def window_bev(store: RecordStore, camera_id: int, cam: CameraConfig, at_us: int) -> np.ndarray:
    """BEV_POINT rows, one per distinct person, of the 5-second window that holds at_us.

    All of a person's boxes in the window are averaged component-wise and
    the averaged box is projected once, so the output length equals the
    window's distinct-person count.
    """
    ws = window_start(at_us)
    return _averaged_points(store, camera_id, cam, ws, ws + WINDOW_US)


def daily_bev(store: RecordStore, camera_id: int, cam: CameraConfig, day: int) -> np.ndarray:
    """BEV_POINT rows of every 5-second window of one UTC calendar day, given as an epoch day."""
    return _averaged_points(store, camera_id, cam, day * US_PER_DAY, (day + 1) * US_PER_DAY)
