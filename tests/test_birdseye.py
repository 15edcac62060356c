"""Ground-plane projection: formulas, averaging, the frame check, and geometric properties."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa.birdseye import (
    BEV_POINT,
    MIN_NORMALIZED_H,
    CameraConfig,
    daily_bev,
    window_bev,
)
from svaa.errors import CameraMismatch, InvalidBBox, InvalidConfig
from svaa.timeutil import US_PER_DAY, format_rfc3339, to_us

from conftest import make_line, store_from_lines, utc

CAM = CameraConfig(1, 1920, 1080, 50.0, 70.0, "test")  # theta_mid = 60 degrees
DAY = to_us(utc(2023, 10, 16)) // US_PER_DAY  # the epoch day of 2023-10-16


def _point(bbox, cam=CAM, when=to_us(utc(2023, 10, 16, 9, 0, 2))) -> np.void:
    """The one BEV_POINT row window_bev gives for a memory store that holds one box."""
    line = make_line(record_time=format_rfc3339(when), camera_id=cam.camera_id, bbox=bbox, global_id=7)
    (point,) = window_bev(store_from_lines([line]), cam.camera_id, cam, when)
    return point


class TestCameraConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(width=0), dict(height=-5),
        dict(min_teta=0.0), dict(min_teta=70.0, max_teta=50.0),
        dict(max_teta=90.0), dict(min_teta=-10.0),
        dict(min_teta=5e-324, max_teta=1e-323),  # the mid angle is 0 radians, so a fixed grid would have no extent
    ])
    def test_invariants(self, kwargs):
        base = dict(camera_id=1, width=1920, height=1080, min_teta=50.0, max_teta=70.0)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            CameraConfig(**base)

    def test_theta_mid(self):
        assert CAM.theta_mid_rad == pytest.approx(math.radians(60.0))


class TestScaleFactor:
    """The depth bev_y is tan(theta_mid) / max(normalized box height, 0.01)."""

    def test_full_height(self):
        assert _point((0, 0, 100, 1080))["bev_y"] == pytest.approx(1.7320508, abs=1e-6)

    def test_half_height_doubles(self):
        assert _point((0, 0, 100, 540))["bev_y"] == pytest.approx(3.4641016, abs=1e-6)

    def test_zero_clamps(self):  # a 1-pixel box is below the clamp
        assert _point((0, 0, 100, 1))["bev_y"] == pytest.approx(math.tan(math.radians(60)) / 0.01)

    def test_strictly_decreasing_above_clamp(self):
        heights = [0.02, 0.1, 0.3, 0.5, 0.9, 1.0]
        depths = [_point((0, 0, 100, h * 1080))["bev_y"] for h in heights]
        assert all(a > b for a, b in zip(depths, depths[1:]))


class TestBevTransform:
    """One box, projected through window_bev."""

    def test_formula_recomputation(self):
        point = _point((100, 200, 50, 100))
        normalized_h = 100 / 1080
        depth = math.tan(math.radians(60.0)) / max(normalized_h, MIN_NORMALIZED_H)
        cx = 100 + 50 / 2
        assert point["bev_y"] == pytest.approx(depth, rel=1e-12)
        assert point["bev_y"] == pytest.approx(18.706148, abs=1e-5)
        assert point["bev_x"] == pytest.approx((cx / 1920 - 0.5) * depth, rel=1e-12)
        assert point["bev_x"] == pytest.approx(-8.135226, abs=1e-5)

    def test_centered_box_on_axis(self):
        point = _point((1920 / 2 - 25, 200, 50, 100))
        assert point["bev_x"] == 0.0

    def test_taller_means_nearer(self):
        near = _point((935, 100, 50, 400))
        far = _point((935, 100, 50, 200))
        assert near["bev_y"] < far["bev_y"]

    def test_camera_mismatch(self, mem_store):
        with pytest.raises(CameraMismatch):
            daily_bev(mem_store, 2, CAM, DAY)

    def test_bbox_must_fit_frame(self):
        assert _point((1870, 980, 50, 100))["bev_y"] > 0  # touches the right and bottom edges
        for box in ((1900, 0, 50, 100), (0, 1000, 50, 100)):
            store = store_from_lines([make_line(bbox=(100, 200, 50, 100), global_id=1),
                                      make_line(bbox=box, global_id=2, local_id=2)])
            with pytest.raises(InvalidBBox, match="does not fit the 1920x1080 frame of camera 1"):
                window_bev(store, 1, CAM, to_us(utc(2023, 10, 16, 9)))
            with pytest.raises(InvalidBBox):
                daily_bev(store, 1, CAM, DAY)

    def test_window_start_aligned(self):
        point = _point((100, 200, 50, 100), when=to_us(utc(2023, 10, 16, 9, 0, 7)))
        assert point["window_us"] == to_us(utc(2023, 10, 16, 9, 0, 5)) and point["global_id"] == 7


def _window_lines(boxes_by_gid, second_offsets=None):
    lines = []
    lid = 0
    for gid, boxes in boxes_by_gid.items():
        for i, box in enumerate(boxes):
            lid += 1
            sec = (second_offsets or {}).get((gid, i), i % 5)
            lines.append(make_line(
                record_time=f"2023-10-16T09:00:0{sec}Z",
                bbox=box, global_id=gid, local_id=lid,
            ))
    return lines


class TestWindowBev:
    WINDOW = to_us(utc(2023, 10, 16, 9, 0, 0))

    def test_thirteen_records_nine_points(self):
        boxes = {gid: [(100 + gid, 200, 50, 100)] for gid in range(1, 10)}
        for gid in (1, 2, 3, 4):
            boxes[gid].append((110 + gid, 205, 52, 104))
        store = store_from_lines(_window_lines(boxes))
        points = window_bev(store, 1, CAM, self.WINDOW)
        assert len(points) == 9
        assert sum(len(b) for b in boxes.values()) == 13

    def test_averaging_idempotent_for_identical_boxes(self):
        repeated = store_from_lines(_window_lines({4: [(300, 220, 60, 120)] * 5}))
        single = store_from_lines(_window_lines({4: [(300, 220, 60, 120)]}))
        assert np.array_equal(window_bev(repeated, 1, CAM, self.WINDOW), window_bev(single, 1, CAM, self.WINDOW))

    def test_average_then_project(self):
        store = store_from_lines(_window_lines({9: [(100, 200, 50, 80), (120, 210, 54, 120)]}))
        (point,) = window_bev(store, 1, CAM, self.WINDOW)
        expected = _point(((100 + 120) / 2, (200 + 210) / 2, (50 + 54) / 2, 100.0), when=self.WINDOW)
        assert point["bev_x"] == pytest.approx(expected["bev_x"], rel=1e-12)
        assert point["bev_y"] == pytest.approx(expected["bev_y"], rel=1e-12)

    def test_empty_window(self, mem_store):
        points = window_bev(mem_store, 1, CAM, self.WINDOW)
        assert points.dtype == BEV_POINT and len(points) == 0

    def test_only_humans_projected(self):
        lines = [
            make_line(bbox=(100, 200, 50, 100), global_id=1, class_id=0),
            make_line(bbox=(300, 200, 50, 100), global_id=2, class_id=5, local_id=2),
        ]
        store = store_from_lines(lines)
        assert len(window_bev(store, 1, CAM, self.WINDOW)) == 1

    def test_unaligned_start_floors(self):
        store = store_from_lines(_window_lines({4: [(300, 220, 60, 120)]}))
        aligned = window_bev(store, 1, CAM, self.WINDOW)
        assert np.array_equal(window_bev(store, 1, CAM, self.WINDOW + 3_000_000), aligned)

    def test_camera_mismatch(self, mem_store):
        with pytest.raises(CameraMismatch):
            window_bev(mem_store, 2, CAM, self.WINDOW)


class TestDailyBev:
    def test_matches_per_window_union(self):
        rng = random.Random(12)
        lines = []
        base = to_us(utc(2023, 10, 16))
        for i in range(300):
            h = rng.randrange(40, 400)
            w = rng.randrange(20, 160)
            x = rng.randrange(0, 1920 - w)
            y = rng.randrange(0, 1080 - h)
            lines.append(make_line(
                record_time=format_rfc3339(base + rng.randrange(0, 86400) * 1_000_000),
                bbox=(x, y, w, h), global_id=rng.randrange(1, 40), local_id=i + 1,
            ))
        store = store_from_lines(lines)
        bulk = daily_bev(store, 1, CAM, DAY)
        pieced = np.concatenate([window_bev(store, 1, CAM, ws) for ws in np.unique(bulk["window_us"]).tolist()])
        assert len(bulk) == len(pieced)
        assert np.array_equal(bulk[["window_us", "global_id"]], pieced[["window_us", "global_id"]])
        assert np.allclose(bulk["bev_x"], pieced["bev_x"], rtol=1e-12, atol=1e-12)
        assert np.allclose(bulk["bev_y"], pieced["bev_y"], rtol=1e-12, atol=0)


@st.composite
def in_frame_box(draw, width=1920, height=1080):
    h = draw(st.integers(12, height))
    w = draw(st.integers(5, width))
    x = draw(st.integers(0, width - w))
    y = draw(st.integers(0, height - h))
    return (x, y, w, h)


@given(in_frame_box(), st.integers(12, 1080), st.integers(12, 1080))
@settings(max_examples=150)
def test_depth_monotone_in_height(box, h1, h2):
    x, y, w, _ = box
    h_small, h_big = sorted((h1, h2))
    if h_small == h_big:
        return
    cx_frac = 0.4
    def project(h):
        bx = cx_frac * 1920 - w / 2
        return _point((min(max(bx, 0), 1920 - w), 0, w, h))
    assert project(h_big)["bev_y"] < project(h_small)["bev_y"]


@given(in_frame_box())
@settings(max_examples=150)
def test_scale_invariance_under_2x(box):
    x, y, w, h = box
    small = _point((x, y, w, h))
    big = _point((2 * x, 2 * y, 2 * w, 2 * h), CameraConfig(1, 3840, 2160, 50.0, 70.0, "test"))
    assert big["bev_x"] == pytest.approx(small["bev_x"], abs=1e-12)
    assert big["bev_y"] == pytest.approx(small["bev_y"], rel=1e-12)


@given(st.integers(12, 600), st.integers(0, 900), st.integers(0, 900))
@settings(max_examples=150)
def test_left_right_order_preserved(h, x1, x2):
    if x1 == x2:
        return
    lo, hi = sorted((x1, x2))
    w = 100
    a = _point((lo, 0, w, h))
    b = _point((hi, 0, w, h))
    assert a["bev_x"] < b["bev_x"]


@given(in_frame_box())
@settings(max_examples=100)
def test_lateral_extent_bounded_by_depth(box):
    point = _point(box)
    assert point["bev_y"] > 0
    assert abs(point["bev_x"]) <= 0.5 * point["bev_y"] + 1e-12
