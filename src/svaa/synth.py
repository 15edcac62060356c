"""Seeded synthetic detection streams with exact per-cell ground truth.

People arrive per camera by a time-inhomogeneous Poisson process (hourly
rates, damped by a multiplier on weekends and holidays), walk a linear
horizontal drift across the frame for a sampled duration, and emit one
record per emission period while active. The stream is a pure function of
(profile, t0, t1): per-camera RNG streams are spawned from the profile seed
keyed by camera id, and cameras and hour cells are visited in a fixed
order. Ground truth distinct counts are tallied from the emitted records
themselves, so they match any downstream recount exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidProfile
from .records import distinct_pairs
from .timeutil import (
    US_PER_DAY,
    US_PER_HOUR,
    date_to_day,
    day_to_date,
    format_rfc3339,
    is_weekend,
    to_us,
)

# hourly arrival shape of a daytime-busy site, persons/hour
BASE_HOURLY_RATE = (
    2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
    10.0, 30.0, 60.0, 80.0, 90.0, 100.0,
    120.0, 110.0, 90.0, 80.0, 70.0, 50.0,
    30.0, 20.0, 12.0, 8.0, 4.0, 2.0,
)
_CAMERA_SCALE = (1.2, 1.0, 0.9, 1.1, 0.8, 1.0, 0.7, 1.3)

DEFAULT_SPAN = (datetime.fromisoformat("2023-10-12T00:00:00+00:00"),
                datetime.fromisoformat("2023-10-20T00:00:00+00:00"))
DEFAULT_HOLIDAYS = (date(2023, 10, 12), date(2023, 10, 13))  # fall-break style days

_GID_STRIDE = 1_000_000  # per-camera global-id block keeps ids unique across cameras


@dataclass(frozen=True, slots=True)
class CameraSim:
    camera_id: int
    width: int = 1920
    height: int = 1080
    hourly_rate: tuple[float, ...] = BASE_HOURLY_RATE

    def __post_init__(self):
        if self.camera_id <= 0:
            raise InvalidProfile(f"camera_id must be positive, got {self.camera_id}")
        if self.width <= 0 or self.height <= 0:
            raise InvalidProfile(f"camera {self.camera_id}: resolution must be positive")
        if len(self.hourly_rate) != 24 or any(r < 0 for r in self.hourly_rate):
            raise InvalidProfile(f"camera {self.camera_id}: need 24 nonnegative hourly rates")


@dataclass(frozen=True, slots=True)
class SimProfile:
    cameras: tuple[CameraSim, ...]
    weekend_multiplier: float = 1.0
    duration_range_s: tuple[float, float] = (8.0, 25.0)
    height_frac_range: tuple[float, float] = (0.08, 0.35)
    emission_period_s: float = 0.5
    holidays: tuple[date, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not self.cameras:
            raise InvalidProfile("profile needs at least one camera")
        ids = [c.camera_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise InvalidProfile("camera ids must be unique")
        if not 0 <= self.weekend_multiplier <= 1:
            raise InvalidProfile("weekend_multiplier must be in [0, 1]")
        lo, hi = self.duration_range_s
        if not 0 < lo <= hi:
            raise InvalidProfile("duration range must be positive and ordered")
        lo, hi = self.height_frac_range
        if not 0 < lo <= hi <= 1:
            raise InvalidProfile("height fraction range must sit in (0, 1]")
        if self.emission_period_s <= 0:
            raise InvalidProfile("emission period must be positive")

    def holiday_days(self) -> frozenset[int]:
        return frozenset(date_to_day(d) for d in self.holidays)


def default_profile(
    seed: int = 1,
    weekend_multiplier: float = 0.25,
    rate_scale: float = 1.0,
    n_cameras: int = 8,
    emission_period_s: float = 0.5,
) -> SimProfile:
    """Eight-day campus-shaped default: busy weekday middays, quiet weekends."""
    cameras = tuple(
        CameraSim(
            camera_id=i + 1,
            hourly_rate=tuple(r * _CAMERA_SCALE[i % len(_CAMERA_SCALE)] * rate_scale for r in BASE_HOURLY_RATE),
        )
        for i in range(n_cameras)
    )
    return SimProfile(
        cameras=cameras,
        weekend_multiplier=weekend_multiplier,
        emission_period_s=emission_period_s,
        holidays=DEFAULT_HOLIDAYS,
        seed=seed,
    )


@dataclass(slots=True)
class GroundTruth:
    """Distinct-person counts per (camera, UTC date, hour of day)."""

    counts: dict[tuple[int, date, int], int] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["camera_id,date,hour,count"]
        for (camera_id, d, hour), count in sorted(self.counts.items()):
            lines.append(f"{camera_id},{d.isoformat()},{hour},{count}")
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class _Columns:
    """One camera's emitted rows, time-unsorted."""

    time_us: np.ndarray
    global_id: np.ndarray
    local_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray


def _rate_multiplier(day: int, holidays: frozenset[int], m: float) -> float:
    return m if (is_weekend(day) or day in holidays) else 1.0


def _simulate_camera(cam: CameraSim, profile: SimProfile, t0_us: int, t1_us: int) -> _Columns:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(profile.seed, spawn_key=(cam.camera_id,))))
    holidays = profile.holiday_days()
    d_lo, d_hi = profile.duration_range_s
    h_lo, h_hi = profile.height_frac_range
    period_us = profile.emission_period_s * 1e6

    arrivals: list[np.ndarray] = []
    durations: list[np.ndarray] = []
    hfracs: list[np.ndarray] = []
    yfracs: list[np.ndarray] = []
    x0fracs: list[np.ndarray] = []
    x1fracs: list[np.ndarray] = []

    first_hour = t0_us // US_PER_HOUR
    last_hour = -(-t1_us // US_PER_HOUR)
    for hour in range(first_hour, last_hour):
        cell_lo = max(t0_us, hour * US_PER_HOUR)
        cell_hi = min(t1_us, (hour + 1) * US_PER_HOUR)
        if cell_hi <= cell_lo:
            continue
        day = (hour * US_PER_HOUR) // US_PER_DAY
        rate = cam.hourly_rate[hour % 24] * _rate_multiplier(day, holidays, profile.weekend_multiplier)
        lam = rate * (cell_hi - cell_lo) / US_PER_HOUR
        n = int(rng.poisson(lam))
        if n == 0:
            continue
        arrivals.append(cell_lo + rng.random(n) * (cell_hi - cell_lo))
        durations.append(rng.uniform(d_lo, d_hi, n) * 1e6)
        hfracs.append(rng.uniform(h_lo, h_hi, n))
        yfracs.append(rng.random(n))
        x0fracs.append(rng.random(n))
        x1fracs.append(rng.random(n))

    if not arrivals:
        empty = np.empty(0, dtype=np.int64)
        return _Columns(empty, empty, empty, empty, empty, empty, empty)

    arrival = np.concatenate(arrivals)
    duration = np.concatenate(durations)
    hfrac = np.concatenate(hfracs)
    yfrac = np.concatenate(yfracs)
    x0frac = np.concatenate(x0fracs)
    x1frac = np.concatenate(x1fracs)
    track_id = np.arange(1, len(arrival) + 1, dtype=np.int64)

    h_px = np.clip(np.rint(hfrac * cam.height), 2, cam.height).astype(np.int64)
    w_px = np.clip(np.rint(0.4 * h_px), 1, cam.width).astype(np.int64)
    y_px = np.rint(yfrac * (cam.height - h_px)).astype(np.int64)

    end = np.minimum(arrival + duration, float(t1_us))
    n_emit = np.ceil((end - arrival) / period_us).astype(np.int64)
    n_emit = np.maximum(n_emit, 1)
    total = int(n_emit.sum())
    row = np.repeat(np.arange(len(arrival)), n_emit)
    offsets = np.concatenate(([0], np.cumsum(n_emit)[:-1]))
    k = np.arange(total, dtype=np.int64) - np.repeat(offsets, n_emit)

    time_us = (arrival[row] + k * period_us).astype(np.int64)
    pos = (k * period_us) / duration[row]
    xfrac = x0frac[row] + (x1frac[row] - x0frac[row]) * pos
    x_px = np.rint(xfrac * (cam.width - w_px[row])).astype(np.int64)

    return _Columns(
        time_us=time_us,
        global_id=cam.camera_id * _GID_STRIDE + track_id[row],
        local_id=track_id[row],
        x=x_px,
        y=y_px[row],
        w=w_px[row],
        h=h_px[row],
    )


def _tally_truth(truth: GroundTruth, camera_id: int, cols: _Columns) -> None:
    hour_abs = cols.time_us // US_PER_HOUR
    order, first = distinct_pairs(hour_abs, cols.global_id)
    hours, counts = np.unique(hour_abs[order][first], return_counts=True)
    for h, count in zip(hours.tolist(), counts.tolist()):
        d = day_to_date(h * US_PER_HOUR // US_PER_DAY)
        truth.counts[(camera_id, d, h % 24)] = count


def _generate_columns(profile: SimProfile, t0: datetime, t1: datetime) -> tuple[list[tuple[int, _Columns]], GroundTruth]:
    t0_us, t1_us = to_us(t0), to_us(t1)
    if t0_us >= t1_us:
        raise InvalidProfile(f"need t0 < t1, got {t0} .. {t1}")
    truth = GroundTruth()
    per_camera = []
    for cam in sorted(profile.cameras, key=lambda c: c.camera_id):
        cols = _simulate_camera(cam, profile, t0_us, t1_us)
        _tally_truth(truth, cam.camera_id, cols)
        per_camera.append((cam.camera_id, cols))
    return per_camera, truth


def generate_lines(profile: SimProfile, t0: datetime, t1: datetime) -> tuple[Iterator[str], GroundTruth]:
    """Time-sorted serialized record lines (without newlines) plus ground truth."""
    per_camera, truth = _generate_columns(profile, t0, t1)

    def lines() -> Iterator[str]:
        if not per_camera:
            return
        cam_col = np.concatenate([np.full(len(c.time_us), cid, dtype=np.int64) for cid, c in per_camera])
        times = np.concatenate([c.time_us for _, c in per_camera])
        gids = np.concatenate([c.global_id for _, c in per_camera])
        order = np.lexsort((gids, cam_col, times))
        lids = np.concatenate([c.local_id for _, c in per_camera])
        xs = np.concatenate([c.x for _, c in per_camera])
        ys = np.concatenate([c.y for _, c in per_camera])
        ws = np.concatenate([c.w for _, c in per_camera])
        hs = np.concatenate([c.h for _, c in per_camera])
        t_l = times[order].tolist()
        c_l = cam_col[order].tolist()
        g_l = gids[order].tolist()
        l_l = lids[order].tolist()
        x_l = xs[order].tolist()
        y_l = ys[order].tolist()
        w_l = ws[order].tolist()
        h_l = hs[order].tolist()

        for i in range(len(t_l)):
            yield (
                f'{{"record_time":"{format_rfc3339(t_l[i])}","camera_id":{c_l[i]},"class_id":0,'
                f'"bbox":[{x_l[i]},{y_l[i]},{w_l[i]},{h_l[i]}],'
                f'"local_id":{l_l[i]},"global_id":{g_l[i]}}}'
            )

    return lines(), truth


def write_stream(
    profile: SimProfile,
    t0: datetime,
    t1: datetime,
    records_path: str | Path,
    truth_path: str | Path | None = None,
) -> int:
    """Write the stream as newline-delimited records (and the truth CSV); returns the record count."""
    lines, truth = generate_lines(profile, t0, t1)
    n = 0
    with Path(records_path).open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            n += 1
    if truth_path is not None:
        Path(truth_path).write_text(truth.to_csv(), encoding="utf-8")
    return n


def profile_from_dict(obj: dict) -> SimProfile:
    try:
        cameras = tuple(
            CameraSim(
                camera_id=c["camera_id"],
                width=c.get("width", 1920),
                height=c.get("height", 1080),
                hourly_rate=tuple(c["hourly_rate"]),
            )
            for c in obj["cameras"]
        )
        return SimProfile(
            cameras=cameras,
            weekend_multiplier=obj.get("weekend_multiplier", 1.0),
            duration_range_s=tuple(obj.get("duration_range_s", (8.0, 25.0))),
            height_frac_range=tuple(obj.get("height_frac_range", (0.08, 0.35))),
            emission_period_s=obj.get("emission_period_s", 0.5),
            holidays=tuple(date.fromisoformat(d) for d in obj.get("holidays", ())),
            seed=obj.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProfile(f"bad profile document: {exc}") from exc


def load_profile(path: str | Path) -> SimProfile:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidProfile(f"cannot read profile {path}: {exc}") from exc
    return profile_from_dict(obj)
