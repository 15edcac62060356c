"""Runtime configuration: cameras, locations, holidays, analytic parameters."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from . import anomaly, occupancy
from .heatmap import MAX_GRID_SIDE
from .birdseye import CameraConfig
from .errors import InvalidConfig
from .timeutil import date_to_day

# out_of_range bounds: for seconds whose timedelta is at least 1 microsecond and fits the type, and for a count
SECONDS = dict(low=5e-7, above=True, high=86_400.0 * (timedelta.max.days + 1))
COUNT = dict(low=1, integer=True)
GRID_SIDE = dict(COUNT, high=MAX_GRID_SIDE + 1)
# out_of_range bounds of each numeric parameter, by document key; its AppConfig field is the key with "_" for "."
_NUMBERS = {"occupancy.min_samples": COUNT, "occupancy.history_capacity": COUNT,
            "anomaly.min_samples": dict(low=0, integer=True), "heatmap.cols": GRID_SIDE, "heatmap.rows": GRID_SIDE,
            "heatmap.sigma": dict(low=0), "heatmap.gamma": dict(low=0, above=True), "staleness_s": SECONDS}


def out_of_range(value, low: float, high: float = math.inf, integer: bool = False, above: bool = False) -> str | None:
    """Why value is not a number (an int if integer; never a bool) in [low, high), or (low, high) if above; else None."""
    kinds = (int,) if integer else (int, float)
    if type(value) in kinds and (value > low if above else value >= low) and value < high:
        return None
    return f"must be {'an integer' if integer else 'a number'} in {'(' if above else '['}{low:g}, {high:g}), got {value!r}"


@dataclass(slots=True)
class AppConfig:
    store: str | None = None
    cameras: list[CameraConfig] = field(default_factory=list)
    holidays: tuple[date, ...] = ()
    occupancy_min_samples: int = occupancy.DEFAULT_MIN_SAMPLES
    occupancy_history_capacity: int = occupancy.DEFAULT_CAPACITY
    anomaly_min_samples: int = anomaly.DEFAULT_MIN_SAMPLES
    heatmap_mode: str = "fixed"
    heatmap_cols: int = 64
    heatmap_rows: int = 64
    heatmap_sigma: float = 2.0
    heatmap_gamma: float = 1.0
    staleness_s: float = 5.0

    def __post_init__(self):
        ids = [c.camera_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise InvalidConfig("camera ids must be unique")
        if self.heatmap_mode not in ("fixed", "extent"):
            raise InvalidConfig(f"heatmap_mode must be 'fixed' or 'extent', got {self.heatmap_mode!r}")
        for key, bounds in _NUMBERS.items():
            problem = out_of_range(getattr(self, key.replace(".", "_")), **bounds)
            if problem:
                raise InvalidConfig(f"{key} {problem}")

    def camera_map(self) -> dict[int, CameraConfig]:
        return {c.camera_id: c for c in self.cameras}

    def location_map(self) -> dict[int, str]:
        """Every configured camera's location label, "" for a camera without one."""
        return {c.camera_id: c.location for c in self.cameras}

    def holiday_days(self) -> frozenset[int]:
        return frozenset(date_to_day(d) for d in self.holidays)


def config_from_dict(obj: dict) -> AppConfig:
    try:
        cameras = [
            CameraConfig(
                camera_id=c["camera_id"],
                width=c.get("width", 1920),
                height=c.get("height", 1080),
                min_teta=c["min_teta"],
                max_teta=c["max_teta"],
                location=c.get("location", ""),
            )
            for c in obj.get("cameras", [])
        ]
        occ = obj.get("occupancy", {})
        ano = obj.get("anomaly", {})
        heat = obj.get("heatmap", {})
        return AppConfig(
            store=obj.get("store"),
            cameras=cameras,
            holidays=tuple(date.fromisoformat(d) for d in obj.get("holidays", ())),
            occupancy_min_samples=occ.get("min_samples", occupancy.DEFAULT_MIN_SAMPLES),
            occupancy_history_capacity=occ.get("history_capacity", occupancy.DEFAULT_CAPACITY),
            anomaly_min_samples=ano.get("min_samples", anomaly.DEFAULT_MIN_SAMPLES),
            heatmap_mode=heat.get("mode", "fixed"),
            heatmap_cols=heat.get("cols", 64),
            heatmap_rows=heat.get("rows", 64),
            heatmap_sigma=heat.get("sigma", 2.0),
            heatmap_gamma=heat.get("gamma", 1.0),
            staleness_s=obj.get("staleness_s", 5.0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad config document: {exc}") from exc


def load_config(path: str | Path) -> AppConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(obj)

