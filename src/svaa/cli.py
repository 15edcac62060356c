"""Command-line entry point: ingest, metrics, occupancy, anomaly, bev, heatmap, simulate.

All subcommands work offline on local files. Timestamps on the command line
are RFC 3339 UTC; day windows and day classes are UTC-defined. Every
analytic is routed through the corresponding module operation, the CLI only
parses arguments and formats output.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator

import numpy as np

from . import anomaly as anomaly_mod
from . import birdseye, heatmap, metrics, occupancy, synth
from .config import COUNT, SECONDS, AppConfig, load_config, out_of_range
from .errors import AnalyticsError, UnknownCamera
from .records import RecordStore, ingest_stream
from .timeutil import format_rfc3339, from_us, parse_date_utc, parse_rfc3339, to_us, window_days


class UsageError(Exception):
    """Bad invocation detected after argparse (exit status 2)."""


def _parse_time(text: str) -> datetime:
    return from_us(parse_rfc3339(text))


def _load_config(args) -> AppConfig:
    if args.config:
        return load_config(args.config)
    return AppConfig()


# out_of_range bounds of each numeric option, by its argparse name
_OPTION_BOUNDS = {"top": COUNT, "sigma": dict(low=0), "gamma": dict(low=0, above=True),
                  "cell_size": dict(low=0, above=True), "bucket": SECONDS, "staleness": SECONDS}


def _check_options(args) -> None:
    """Refuse a numeric option outside its bounds with a usage error, before any work is done."""
    for name, bounds in _OPTION_BOUNDS.items():
        value = getattr(args, name, None)
        problem = None if value is None else out_of_range(value, **bounds)
        if problem:
            raise UsageError(f"--{name.replace('_', '-')} {problem}")


def _open_store(args, config: AppConfig, create: bool = False) -> RecordStore:
    path = args.store or config.store
    if not path:
        raise UsageError("no store path given; pass --store or set it in the config")
    if not create and not Path(path).is_dir():
        raise AnalyticsError(f"store {path} does not exist")
    return RecordStore(path)


def _check_camera(config: AppConfig, camera_id: int) -> None:
    known = config.camera_map()
    if known and camera_id not in known:
        raise UnknownCamera(f"camera {camera_id} is not configured ({len(known)} cameras in config)")


def _camera_config(config: AppConfig, camera_id: int) -> birdseye.CameraConfig:
    cam = config.camera_map().get(camera_id)
    if cam is None:
        raise UnknownCamera(f"camera {camera_id} has no camera config (needed for projection)")
    return cam


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _texts(values: np.ndarray, fmt) -> list[str]:
    """fmt of each value, called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fmt(v) for v in distinct.tolist()], dtype=object)[inverse].tolist()


def _null(value: int) -> str:
    return str(value) if value >= 0 else "null"


_LEVEL_NAMES = np.array([level.name for level in occupancy.Level], dtype=object)
_FLAG_TEXTS = np.array(["false", "true"], dtype=object)


def _occupancy_rows(series: occupancy.Levels, camera_id: int, lo: int, hi: int) -> Iterator[tuple]:
    """Windows lo..hi-1 of a replay as (count, level, p25, p75, bucket) texts."""
    buckets = np.array([str(key) for key in occupancy.bucket_keys(camera_id)], dtype=object)
    return zip(series.counts[lo:hi].tolist(), _LEVEL_NAMES[series.level[lo:hi]].tolist(),
               _texts(series.p25[lo:hi], _null), _texts(series.p75[lo:hi], _null),
               buckets[series.slots[lo:hi]].tolist())


def _occupancy_fields(row: tuple) -> str:
    """An occupancy line's fields after window_start, from one row of _occupancy_rows."""
    count, level, p25, p75, bucket = row
    return f'"count":{count},"level":"{level}","p25":{p25},"p75":{p75},"bucket":"{bucket}"'


def cmd_ingest(args, config: AppConfig, out) -> int:
    store = _open_store(args, config, create=True)
    if args.input == "-":
        report = ingest_stream(sys.stdin, store)
    else:
        path = Path(args.input)
        if not path.is_file():
            raise AnalyticsError(f"input {path} does not exist")
        with path.open("r", encoding="utf-8") as fh:
            report = ingest_stream(fh, store)
    store.close()
    first = f'"{format_rfc3339(to_us(report.first_time))}"' if report.first_time else "null"
    last = f'"{format_rfc3339(to_us(report.last_time))}"' if report.last_time else "null"
    out.write(
        f'{{"accepted":{report.accepted},"rejected":{report.rejected},'
        f'"first_time":{first},"last_time":{last}}}\n'
    )
    return 0


def cmd_current(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    if args.at:
        now = _parse_time(args.at)
    else:
        bounds = store.time_bounds()
        if bounds is None:
            out.write("0\n")
            return 0
        now = from_us(bounds[1])
    staleness = timedelta(seconds=args.staleness if args.staleness is not None else config.staleness_s)
    out.write(f"{metrics.current_count(store, now, staleness)}\n")
    return 0


def _group_from_args(args) -> int | str | None:
    if getattr(args, "camera", None) is not None:
        return args.camera
    if getattr(args, "location", None):
        return args.location
    if getattr(args, "all", False):
        return None
    raise UsageError("pick a group: --camera N, --location LABEL, or --all")


def cmd_hourly(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    group = _group_from_args(args)
    if isinstance(group, int):
        _check_camera(config, group)
    profile = metrics.hourly_average(
        store, group, _parse_time(args.time_from), _parse_time(args.time_to),
        location_map=config.location_map() or None,
    )
    out.write("hour,mean,samples\n")
    for hour in sorted(profile.means):
        out.write(f"{hour},{_fmt(profile.means[hour])},{profile.samples[hour]}\n")
    return 0


def cmd_total(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    series = metrics.total_over_time(
        store, _parse_time(args.time_from), _parse_time(args.time_to),
        timedelta(seconds=args.bucket),
    )
    out.write("bucket_start,cumulative\n")
    for start, value in series:
        out.write(f"{format_rfc3339(to_us(start))},{value}\n")
    return 0


def cmd_peaks(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    group = _group_from_args(args)
    if isinstance(group, int):
        _check_camera(config, group)
    ranked = metrics.peak_hours(
        store, group, _parse_time(args.time_from), _parse_time(args.time_to),
        args.top, location_map=config.location_map() or None,
    )
    out.write("hour,mean\n")
    for hour, mean in ranked:
        out.write(f"{hour},{_fmt(mean)}\n")
    return 0


def cmd_occupancy(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    _check_camera(config, args.camera)
    kwargs = dict(
        holidays=config.holiday_days(),
        min_samples=config.occupancy_min_samples,
        capacity=config.occupancy_history_capacity,
    )
    if args.live:
        series = occupancy.levels(
            store, args.camera,
            t0_us=parse_rfc3339(args.time_from) if args.time_from else None,
            t1_us=parse_rfc3339(args.time_to) if args.time_to else None, **kwargs,
        )
        if series is None:
            return 0
        write, fields = out.write, _occupancy_fields
        for lo, hi, date, times in window_days(series.starts):
            for time, row in zip(times, _occupancy_rows(series, args.camera, lo, hi)):
                write(f'{{"window_start":"{date}{time}",{fields(row)}}}\n')
        return 0
    if not args.at:
        raise UsageError("occupancy needs --at TIMESTAMP or --live")
    series = occupancy.level_at(store, args.camera, parse_rfc3339(args.at), **kwargs)
    if series is None:
        raise AnalyticsError(f"camera {args.camera} has no records before {args.at}")
    (row,) = _occupancy_rows(series, args.camera, 0, 1)
    out.write(f"{{{_occupancy_fields(row)}}}\n")
    return 0


def cmd_anomaly(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    _check_camera(config, args.camera)
    try:
        t0_text, t1_text = args.replay.split("..", 1)
    except ValueError:
        raise UsageError("--replay wants a range like 2023-10-16T00:00:00Z..2023-10-17T00:00:00Z")
    series = anomaly_mod.moments(store, args.camera, holidays=config.holiday_days(),
                                 t0_us=parse_rfc3339(t0_text), t1_us=parse_rfc3339(t1_text))
    write = out.write
    write("window_start,count,mean,std,z,is_anomaly\n")
    for lo, hi, date, times in window_days(series.starts):
        counts = series.counts[lo:hi]
        flag, mean, std, z = anomaly_mod.verdicts(counts, series.n[lo:hi], series.s[lo:hi], series.q[lo:hi],
                                                  config.anomaly_min_samples)
        for time, count, mean_text, std_text, z_text, flag_text in zip(
            times, counts.tolist(), _texts(mean, _fmt), _texts(std, _fmt), _texts(z, _fmt),
            _FLAG_TEXTS[flag.view(np.int8)].tolist(),
        ):
            write(f"{date}{time},{count},{mean_text},{std_text},{z_text},{flag_text}\n")
    return 0


def cmd_bev(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    cam = _camera_config(config, args.camera)
    points = birdseye.window_bev(store, args.camera, cam, _parse_time(args.window))
    out.write("global_id,bev_x,bev_y\n")
    for p in points:
        out.write(f"{p.global_id},{_fmt(p.bev_x)},{_fmt(p.bev_y)}\n")
    return 0


def cmd_heatmap(args, config: AppConfig, out) -> int:
    store = _open_store(args, config)
    cam = _camera_config(config, args.camera)
    day = parse_date_utc(args.date)
    points = birdseye.daily_bev(store, args.camera, cam, day)
    mode = args.mode or config.heatmap_mode
    if mode == "fixed":
        geometry = heatmap.fixed_bounds_for(cam, config.heatmap_cols, config.heatmap_rows)
        grid = heatmap.accumulate_grid(points, heatmap.Mode.FIXED_BOUNDS, geometry,
                                       camera_id=args.camera, day=day)
    else:
        grid = heatmap.accumulate_grid(points, heatmap.Mode.DATA_EXTENT, cell_size=args.cell_size,
                                       camera_id=args.camera, day=day)
    sigma = args.sigma if args.sigma is not None else config.heatmap_sigma
    if sigma > 0:
        grid = heatmap.gaussian_smooth(grid, heatmap.SmoothingSpec(sigma))
    gamma = args.gamma if args.gamma is not None else config.heatmap_gamma
    out_path = Path(args.out)
    if out_path.suffix == ".pgm":
        out_path.write_bytes(heatmap.render_pgm(grid, gamma))
    elif out_path.suffix == ".csv":
        out_path.write_text(heatmap.render_csv(grid), encoding="utf-8")
    else:
        raise UsageError(f"--out must end in .pgm or .csv, got {out_path.name}")
    out.write(f"{out_path} peak={_fmt(heatmap.peak_intensity(grid))} mass={_fmt(grid.total_mass)}\n")
    return 0


def cmd_simulate(args, config: AppConfig, out) -> int:
    profile = synth.load_profile(args.profile)
    n = synth.write_stream(
        profile, _parse_time(args.time_from), _parse_time(args.time_to),
        args.out, args.truth,
    )
    out.write(f"{n} records -> {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svaa",
        description="Streaming analytics over multi-camera detection metadata.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="application config (JSON)")
    common.add_argument("--store", help="record store directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="append records from a file or stdin")
    p.add_argument("input", help="newline-delimited record file, or - for stdin")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("current", parents=[common], help="distinct people right now")
    p.add_argument("--at", help="evaluation timestamp (default: newest record)")
    p.add_argument("--staleness", type=float, help="lookback seconds (default from config)")
    p.set_defaults(func=cmd_current)

    for name, helptext in (("hourly", "hourly mean people for a camera or location"),
                           ("peaks", "top hours by hourly mean")):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--camera", type=int)
        p.add_argument("--location")
        p.add_argument("--all", action="store_true", help="every camera")
        p.add_argument("--from", dest="time_from", required=True)
        p.add_argument("--to", dest="time_to", required=True)
        if name == "peaks":
            p.add_argument("--top", type=int, default=3)
            p.set_defaults(func=cmd_peaks)
        else:
            p.set_defaults(func=cmd_hourly)

    p = sub.add_parser("total", parents=[common], help="cumulative distinct people over time")
    p.add_argument("--from", dest="time_from", required=True)
    p.add_argument("--to", dest="time_to", required=True)
    p.add_argument("--bucket", type=float, required=True, help="bucket seconds")
    p.set_defaults(func=cmd_total)

    p = sub.add_parser("occupancy", parents=[common], help="LOW/NORMAL/HIGH against bucket history")
    p.add_argument("--camera", type=int, required=True)
    p.add_argument("--at", help="classify the 5-second window containing this timestamp")
    p.add_argument("--live", action="store_true",
                   help="replay --from..--to (default: the camera's data extent), one line per window;"
                        " a range over 366 days exits 1 with RangeTooLong")
    p.add_argument("--from", dest="time_from")
    p.add_argument("--to", dest="time_to")
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("anomaly", parents=[common], help="two-sigma surge flags per window")
    p.add_argument("--camera", type=int, required=True)
    p.add_argument("--replay", required=True, help="time range T0..T1")
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("bev", parents=[common], help="bird's-eye points for one window")
    p.add_argument("--camera", type=int, required=True)
    p.add_argument("--window", required=True, help="window start timestamp")
    p.set_defaults(func=cmd_bev)

    p = sub.add_parser("heatmap", parents=[common], help="daily spatial heatmap")
    p.add_argument("--camera", type=int, required=True)
    p.add_argument("--date", required=True, help="UTC day, YYYY-MM-DD")
    p.add_argument("--sigma", type=float, help="smoothing sigma in cells; 0 disables")
    p.add_argument("--mode", choices=("fixed", "extent"))
    p.add_argument("--cell-size", type=float, default=1.0, help="cell size for extent mode")
    p.add_argument("--gamma", type=float, help="render gamma")
    p.add_argument("--out", required=True, help="output path (.pgm or .csv)")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic stream")
    p.add_argument("--profile", required=True, help="simulation profile (JSON)")
    p.add_argument("--from", dest="time_from", required=True)
    p.add_argument("--to", dest="time_to", required=True)
    p.add_argument("--out", required=True, help="records output (JSONL)")
    p.add_argument("--truth", help="ground-truth CSV output")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        _check_options(args)
        config = _load_config(args)
        return args.func(args, config, out)
    except UsageError as exc:
        print(f"svaa: {exc}", file=sys.stderr)
        return 2
    except AnalyticsError as exc:
        print(f"svaa: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
