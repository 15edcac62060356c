"""Runtime configuration: cameras, locations, holidays, analytic parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from . import anomaly, occupancy
from .birdseye import CameraConfig
from .errors import InvalidConfig
from .timeutil import date_to_day


@dataclass(slots=True)
class AppConfig:
    store: str | None = None
    cameras: list[CameraConfig] = field(default_factory=list)
    holidays: tuple[date, ...] = ()
    occupancy_min_samples: int = occupancy.DEFAULT_MIN_SAMPLES
    occupancy_capacity: int = occupancy.DEFAULT_CAPACITY
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
        if self.staleness_s <= 0:
            raise InvalidConfig("staleness must be positive")

    def camera_map(self) -> dict[int, CameraConfig]:
        return {c.camera_id: c for c in self.cameras}

    def location_map(self) -> dict[int, str]:
        """Every configured camera's location label, "" for a camera without one."""
        return {c.camera_id: c.location for c in self.cameras}

    def holiday_days(self) -> frozenset[int]:
        return frozenset(date_to_day(d) for d in self.holidays)


def config_to_dict(config: AppConfig) -> dict:
    return {
        "store": config.store,
        "holidays": [d.isoformat() for d in config.holidays],
        "cameras": [
            {
                "camera_id": c.camera_id,
                "width": c.width,
                "height": c.height,
                "min_teta": c.min_teta,
                "max_teta": c.max_teta,
                "location": c.location,
            }
            for c in config.cameras
        ],
        "occupancy": {
            "min_samples": config.occupancy_min_samples,
            "history_capacity": config.occupancy_capacity,
        },
        "anomaly": {"min_samples": config.anomaly_min_samples},
        "heatmap": {
            "mode": config.heatmap_mode,
            "cols": config.heatmap_cols,
            "rows": config.heatmap_rows,
            "sigma": config.heatmap_sigma,
            "gamma": config.heatmap_gamma,
        },
        "staleness_s": config.staleness_s,
    }


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
            occupancy_capacity=occ.get("history_capacity", occupancy.DEFAULT_CAPACITY),
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


def save_config(config: AppConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n", encoding="utf-8")
