"""CLI outputs: the same bytes whatever state the snapshots are in; camera groups; the writer lock."""

from __future__ import annotations

import hashlib
import io
import json
import logging
import random
import shutil
import tracemalloc
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svaa import cli, metrics, synth
from svaa.records import RecordStore, ingest_stream
from svaa.timeutil import parse_day

from conftest import make_line

DAY = "2023-10-16"
T0, T1 = f"{DAY}T09:00:00Z", f"{DAY}T15:00:00Z"  # a busy Monday stretch: 4,320 windows
CAMERAS = [(1, "north"), (2, "north"), (3, ""), (4, "")]  # 4 is configured but never stored


@pytest.fixture(scope="module")
def stream() -> list[str]:
    """Six synthetic hours on three cameras, with feature and batch_id extras on some lines."""
    profile = synth.default_profile(seed=5, rate_scale=0.05, n_cameras=3)
    lines, _ = synth.generate_lines(profile, datetime.fromisoformat(T0), datetime.fromisoformat(T1))
    lines = list(lines)
    for i in range(0, len(lines), 7):
        lines[i] = lines[i][:-1] + f',"feature":"f{i}"}}'
    for i in range(0, len(lines), 11):
        lines[i] = lines[i][:-1] + f',"batch_id":{i}}}'
    return lines


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({"cameras": [
        {"camera_id": c, "min_teta": 20.0, "max_teta": 60.0, "location": loc} for c, loc in CAMERAS
    ]}))
    return path


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    rc = cli.main([str(a) for a in argv], out=out)
    return rc, out.getvalue()


def ingest(store, config, tmp_path, lines) -> str:
    src = tmp_path / "input.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    rc, out = run("ingest", src, "--store", store, "--config", config)
    assert rc == 0
    return out


def busiest_window(lines: list[str], camera: int) -> str:
    """Start of the camera's 5-second window with the most records."""
    windows: dict[str, int] = {}
    for line in lines:
        rec = json.loads(line)
        if rec["camera_id"] == camera:
            start = rec["record_time"][:18] + str(int(rec["record_time"][18]) // 5 * 5) + "Z"
            windows[start] = windows.get(start, 0) + 1
    return max(sorted(windows), key=windows.get)


def outputs(store, config, tmp_path, window: str) -> dict[str, str | bytes]:
    """stdout of every read subcommand, and the heatmap files' bytes."""
    common = ("--store", store, "--config", config)
    span = ("--from", T0, "--to", T1)
    at = window[:-1] + ".5Z"
    calls = {
        "current": ("current",),
        "current_at": ("current", "--at", at, "--staleness", 3600),
        "hourly_all": ("hourly", "--all", *span),
        "hourly_north": ("hourly", "--location", "north", *span),
        "hourly_cam3": ("hourly", "--camera", 3, *span),
        "peaks_all": ("peaks", "--all", "--top", 3, *span),
        "total": ("total", "--bucket", 600, *span),
        "occupancy_at": ("occupancy", "--camera", 1, "--at", at),
        "occupancy_live": ("occupancy", "--camera", 2, "--live", *span),
        "anomaly": ("anomaly", "--camera", 1, "--replay", f"{T0}..{T1}"),
        "bev": ("bev", "--camera", 1, "--window", window),
    }
    result: dict[str, str | bytes] = {}
    for label, argv in calls.items():
        rc, out = run(*argv, *common)
        assert rc == 0, label
        result[label] = out
    for suffix in ("pgm", "csv"):
        path = tmp_path / f"heat.{suffix}"
        rc, out = run("heatmap", "--camera", 1, "--date", DAY, "--out", path, *common)
        assert rc == 0
        result[f"heatmap_{suffix}"] = out.replace(str(path), "OUT")
        result[f"heatmap_{suffix}_bytes"] = path.read_bytes()
    return result


def snapshots(store) -> list:
    return sorted(store.glob("*.snap.npz"))


@pytest.fixture(scope="module")
def window(stream) -> str:
    return busiest_window(stream, 1)


@pytest.fixture(scope="module")
def built(stream, config, window, tmp_path_factory):
    """A store built by one ingest, and its outputs with the snapshots that ingest wrote."""
    tmp_path = tmp_path_factory.mktemp("built")
    store = tmp_path / "store"
    ingest(store, config, tmp_path, stream)
    assert len(snapshots(store)) == 3
    return store, outputs(store, config, tmp_path, window)


@pytest.fixture
def reference(built, tmp_path):
    """A copy of the built store, free to change, and the built store's outputs."""
    store, ref = built
    shutil.copytree(store, tmp_path / "ref")
    return tmp_path / "ref", ref


# SHA-256 of every output of `built`, so that a refactor of the analytics
# must keep every byte. The stream comes from numpy's seeded generator,
# which numpy does not promise to keep across releases; re-pin only after
# checking the outputs themselves.
GOLDEN_OUTPUTS = {
    "current": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "current_at": "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
    "hourly_all": "af5b7043297b9be198540ebedfc59d6e7d6238379fcf61af9cff92fc0eee78c0",
    "hourly_north": "cfcdb24fbb05b4af5efeeeb83c4f17edfaab984aa33e8ee8191883dbb1986b63",
    "hourly_cam3": "f8aba417edb675d13fa448490d144bafe4b23b8971aff5c9edca6fbc6c7a66d1",
    "peaks_all": "94d840b128101b17bac218129320a9c28cf64f5fd7576f1969f140a2e37689b5",
    "total": "4d7bd6a9524eeb3729600e16e0e12b8dea5807378fd3c0ccc777f9d972ed8b9b",
    "occupancy_at": "3d504769c2cefe565ba58b99b300e3020c90566f526ebe8ecd28ad4d3d3aec5f",
    "occupancy_live": "0400d6bcb4bd20b02e70af39953867ade9928ac591efd98e85136f2d235510d2",
    "anomaly": "43c19fd4e74d163a7bd003b28c37b7deee4a48962a90bb05dce75f3522715e9f",
    "bev": "380b4b2f81d100f5f2559e06f1d38d326980abdf495e7832ee298faf522fd42c",
    "heatmap_pgm": "09211c66a1a03e4b2decdd5d94d523569e730d9021edd15b2cd135a2a639887e",
    "heatmap_pgm_bytes": "a3a92fdb6bb78044bdfab3dcb2e3955d8d3b145fac558cf72d0b93293b26629e",
    "heatmap_csv": "09211c66a1a03e4b2decdd5d94d523569e730d9021edd15b2cd135a2a639887e",
    "heatmap_csv_bytes": "5d1d2319e2b983f6aaa0ed010cd7e470c7adc6d680925d7354b81aae9498add8",
}
GOLDEN_NUMPY = "2.4.6"  # numpy version the digests were taken under


def test_golden_outputs(reference):
    _, ref = reference
    digests = {
        label: hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest()
        for label, out in ref.items()
    }
    changed = sorted(label for label in GOLDEN_OUTPUTS if digests.get(label) != GOLDEN_OUTPUTS[label])
    assert digests.keys() == GOLDEN_OUTPUTS.keys() and not changed, (
        f"CLI outputs changed: {changed}; pinned under numpy {GOLDEN_NUMPY}, "
        f"running numpy {np.__version__}"
    )


def test_outputs_are_not_trivial(reference):
    _, ref = reference
    assert ref["current"] != "0\n"
    assert ref["bev"].count("\n") > 2
    assert ref["anomaly"].count("\n") == 4321
    assert ref["hourly_cam3"].count("\n") == 7


def test_snapshot_deleted(reference, config, window, tmp_path):
    store, ref = reference
    for snap in snapshots(store):
        snap.unlink()
    assert outputs(store, config, tmp_path, window) == ref
    assert len(snapshots(store)) == 3  # the first open rewrote them
    assert outputs(store, config, tmp_path, window) == ref


def test_snapshot_stale_with_a_tail(stream, config, window, tmp_path, reference):
    _, ref = reference
    store = tmp_path / "stale"
    ingest(store, config, tmp_path, stream[: len(stream) // 3])
    old = {snap.name: snap.read_bytes() for snap in snapshots(store)}
    ingest(store, config, tmp_path, stream[len(stream) // 3:])
    for name, data in old.items():
        (store / name).write_bytes(data)
    assert outputs(store, config, tmp_path, window) == ref


def test_one_ingest_or_two(stream, config, window, tmp_path, reference):
    ref_store, ref = reference
    store = tmp_path / "twice"
    first = ingest(store, config, tmp_path, stream[: len(stream) // 2])
    second = ingest(store, config, tmp_path, stream[len(stream) // 2:])
    assert json.loads(first)["accepted"] + json.loads(second)["accepted"] == len(stream)
    for path in ref_store.glob("camera_*.jsonl"):
        assert (store / path.name).read_bytes() == path.read_bytes()
    assert outputs(store, config, tmp_path, window) == ref


@pytest.mark.parametrize("damage", ["rewrite", "truncate"])
def test_snapshot_not_matching_the_file(reference, config, window, tmp_path, damage):
    """A changed prefix is parsed in full: the answers are those of the file as it is now."""
    store, ref = reference
    path = store / "camera_00001.jsonl"
    text = path.read_text()
    if damage == "rewrite":  # same length: every person becomes a non-human detection
        text = text.replace('"class_id":0', '"class_id":1')
    else:
        text = "".join(text.splitlines(keepends=True)[: text.count("\n") // 2])
    path.write_text(text)
    fresh = tmp_path / "fresh"
    shutil.copytree(store, fresh)
    for snap in snapshots(fresh):
        snap.unlink()
    expected = outputs(fresh, config, tmp_path, window)
    assert expected != ref
    assert outputs(store, config, tmp_path, window) == expected


def test_configured_camera_without_location(reference, config, tmp_path):
    store, ref = reference
    rc, out = run("hourly", "--camera", 3, "--from", T0, "--to", T1, "--store", store, "--config", config)
    assert rc == 0 and out == ref["hourly_cam3"]
    rc, out = run("peaks", "--camera", 3, "--from", T0, "--to", T1, "--store", store, "--config", config)
    assert rc == 0 and out.count("\n") == 4
    rc, out = run("hourly", "--camera", 4, "--from", T0, "--to", T1, "--store", store, "--config", config)
    assert rc == 0 and out.splitlines()[1:] == [f"{h},0,1" for h in range(9, 15)]
    rc, out = run("hourly", "--camera", 99, "--from", T0, "--to", T1, "--store", store, "--config", config)
    assert rc == 1


def test_second_writer_exits_1(reference, tmp_path, capsys):
    store, _ = reference
    holder = RecordStore(store)
    ingest_stream([make_line(global_id=1)], holder)
    try:
        src = tmp_path / "more.jsonl"
        src.write_text(make_line(camera_id=2, global_id=2) + "\n")
        rc, _ = run("ingest", src, "--store", store)
        assert rc == 1
        assert "StoreLocked" in capsys.readouterr().err
    finally:
        holder.close()


def test_instant_beyond_the_datetime_range_exits_1(tmp_path, capsys):
    (tmp_path / "store").mkdir()
    rc, _ = run("current", "--at", "9999-12-31T23:59:59-01:00", "--store", tmp_path / "store")
    assert rc == 1
    assert "InvalidTimestamp" in capsys.readouterr().err


def test_holiday_and_saturday_use_the_weekend_buckets(tmp_path):
    """At the same hour of day, a configured holiday shares its buckets with a Saturday, not with a weekday."""
    per_window = {"2023-10-19": 1, "2023-10-20": 2, "2023-10-21": 3}  # Thursday, Friday, Saturday
    lines = [make_line(record_time=f"{day}T12:00:{5 * w:02d}Z", global_id=g + 1)
             for day, n in per_window.items() for w in range(6) for g in range(n)]
    thu, fri, sat = (f"{day}T12:00:00Z" for day in per_window)
    span = (thu, "2023-10-21T12:00:30Z")
    store, config = tmp_path / "store", tmp_path / "config.json"

    def replays(holidays: list[str]) -> tuple[dict, dict]:
        """occupancy --live rows and anomaly --replay lines of the Thursday, Friday and Saturday windows."""
        config.write_text(json.dumps({
            "cameras": [{"camera_id": 1, "min_teta": 20.0, "max_teta": 60.0}], "holidays": holidays,
            "occupancy": {"min_samples": 1}, "anomaly": {"min_samples": 1}}))
        common = ("--camera", 1, "--store", store, "--config", config)
        rc, live = run("occupancy", "--live", "--from", span[0], "--to", span[1], *common)
        assert rc == 0
        rows = {row["window_start"]: row for row in map(json.loads, live.splitlines())}
        rc, csv = run("anomaly", "--replay", "..".join(span), *common)
        assert rc == 0
        lines = {line.split(",", 1)[0]: line for line in csv.splitlines()[1:]}
        return {t: (rows[t]["bucket"], rows[t]["level"]) for t in (thu, fri, sat)}, {t: lines[t] for t in (fri, sat)}

    config.write_text("{}")
    ingest(store, config, tmp_path, lines)
    weekday, weekend = "camera=1 hour=12 WEEKDAY", "camera=1 hour=12 WEEKEND_OR_HOLIDAY"

    occupancy, anomaly = replays(["2023-10-20"])  # Saturday sees the holiday Friday's history
    assert occupancy == {thu: (weekday, "UNKNOWN"), fri: (weekend, "UNKNOWN"), sat: (weekend, "HIGH")}
    assert anomaly == {fri: f"{fri},2,0,0,0,false", sat: f"{sat},3,2,0,0,true"}

    occupancy, anomaly = replays([])  # Friday sees Thursday's history, Saturday none
    assert occupancy == {thu: (weekday, "UNKNOWN"), fri: (weekday, "HIGH"), sat: (weekend, "UNKNOWN")}
    assert anomaly == {fri: f"{fri},2,1,0,0,true", sat: f"{sat},3,0,0,0,false"}


class Lines:
    """An output stream that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_renderer_patch_reaches_every_occupancy_line_and_each_write_is_one_line(built, config, window, monkeypatch):
    """A benchmark check that corrupts cli._occupancy_fields must see both --at and --live change."""
    store, ref = built
    common = ("--store", store, "--config", config)
    at = ("occupancy", "--camera", 1, "--at", window[:-1] + ".5Z", *common)
    live = ("occupancy", "--camera", 2, "--live", "--from", T0, "--to", T1, *common)
    replay = ("anomaly", "--camera", 1, "--replay", f"{T0}..{T1}", *common)
    for argv, label in ((live, "occupancy_live"), (replay, "anomaly")):
        out = Lines()
        assert cli.main([str(a) for a in argv], out=out) == 0
        assert "".join(out.writes) == ref[label]
        assert len(out.writes) == ref[label].count("\n") and all(
            text.endswith("\n") and text.count("\n") == 1 for text in out.writes)
    renderer = cli._occupancy_fields
    monkeypatch.setattr(cli, "_occupancy_fields", lambda row: renderer(row).replace('"bucket"', '"bucket "'))
    for argv, label in ((at, "occupancy_at"), (live, "occupancy_live")):
        rc, out = run(*argv)
        assert rc == 0 and out != ref[label] and out.count('"bucket "') == ref[label].count("\n")


def test_at_equals_the_live_line_at_every_window(tmp_path, capsys):
    """Across a midnight that is also a weekday/weekend switch, with a FIFO of 3 that evicts all the time."""
    rng = random.Random(8)
    lines = [make_line(record_time=f"2023-10-{day}T{hh}:{mm:02d}:{ss:02d}Z", global_id=rng.randrange(1, 6),
                       local_id=rng.randrange(1, 10**6))
             for day, hh, minutes in (("20", "23", range(57, 60)), ("21", "00", range(0, 3)))
             for mm in minutes for ss in range(60) for _ in range(rng.randrange(0, 2))]
    store, config = tmp_path / "store", tmp_path / "config.json"
    config.write_text(json.dumps({"occupancy": {"min_samples": 2, "history_capacity": 3}}))
    ingest(store, config, tmp_path, lines)
    common = ("--camera", 1, "--store", store, "--config", config)
    rc, live = run("occupancy", "--live", "--to", "2023-10-21T00:03:30Z", *common)
    assert rc == 0
    rows = {json.loads(line)["window_start"]: line for line in live.splitlines(keepends=True)}
    assert {row.split('"level":"')[1].split('"')[0] for row in rows.values()} == {"UNKNOWN", "LOW", "NORMAL", "HIGH"}
    first = min(rows)
    start = datetime.fromisoformat(first.replace("Z", "+00:00")) - timedelta(seconds=15)
    for k in range(len(rows) + 3):
        window = (start + timedelta(seconds=5 * k)).isoformat().replace("+00:00", "Z")
        rc, out = run("occupancy", "--at", window[:-1] + ".25Z", *common)
        if window < first:  # before any data: no history to rate against, and no --live line
            assert rc == 1 and "has no records before" in capsys.readouterr().err
        else:
            assert rc == 0 and out == rows[window].replace(f'"window_start":"{window}",', ""), window


@pytest.mark.parametrize("argv, error", [
    (("occupancy", "--at", "9999-12-31T23:59:59Z"), "InvalidTimestamp"),  # the window ends in year 10000
    (("occupancy", "--live", "--to", "9999-12-31T23:59:59Z"), "RangeTooLong"),
    (("anomaly", "--replay", "2023-10-16T09:00:00Z..9999-12-31T23:59:59Z"), "RangeTooLong"),
])
def test_ranges_past_the_window_limit_exit_1_without_allocating(tmp_path, capsys, argv, error):
    store = tmp_path / "store"
    src = tmp_path / "one.jsonl"
    src.write_text(make_line(record_time="2023-10-16T09:00:01Z") + "\n")
    assert run("ingest", src, "--store", store)[0] == 0
    tracemalloc.start()
    try:
        rc, out = run(*argv, "--camera", 1, "--store", store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1 and out in ("", "window_start,count,mean,std,z,is_anomaly\n")
    assert error in capsys.readouterr().err
    assert peak < 1 << 20  # the grid asked for would be 8 bytes a window, ~5e10 windows


@pytest.mark.parametrize("argv", [
    ("total", "--bucket", 1, "--from", "2023-10-16T00:00:00Z", "--to", "2024-10-16T00:00:00Z"),  # 31.6 M buckets
    ("total", "--bucket", 60, "--from", "2023-10-16T00:00:00Z", "--to", "9999-12-31T00:00:00Z"),
    ("hourly", "--all", "--from", "2023-10-16T00:00:00Z", "--to", "9999-12-31T00:00:00Z"),  # 70 M hour cells
    ("hourly", "--camera", 1, "--from", "0001-01-01T00:00:00Z", "--to", "2023-10-16T00:00:00Z"),
    ("peaks", "--all", "--top", 3, "--from", "2023-10-16T00:00:00Z", "--to", "9999-12-31T00:00:00Z"),
])
def test_metric_ranges_past_the_bucket_limit_exit_1_without_allocating(tmp_path, capsys, argv):
    store = tmp_path / "store"
    src = tmp_path / "one.jsonl"
    src.write_text(make_line(record_time="2023-10-16T09:00:01Z") + "\n")
    assert run("ingest", src, "--store", store)[0] == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc, out = run(*argv, "--store", store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, out) == (1, "")
    assert capsys.readouterr().err.startswith("svaa: RangeTooLong: ")
    assert peak < 1 << 20


def test_metric_ranges_at_the_bucket_limit_answer(tmp_path, monkeypatch):
    """A range of exactly MAX_BUCKETS buckets or hour cells answers; one more is refused."""
    store = tmp_path / "store"
    src = tmp_path / "one.jsonl"
    src.write_text(make_line(record_time="2024-03-01T09:00:01Z") + "\n")
    assert run("ingest", src, "--store", store)[0] == 0
    assert metrics.MAX_BUCKETS >= 7 * 24 * 3600  # total --bucket 1 over a week answers (~4 s, so not run here)
    monkeypatch.setattr(metrics, "MAX_BUCKETS", 24 * 60)
    day = ("--from", "2024-03-01T00:00:00Z", "--to", "2024-03-02T00:00:00Z", "--store", store)
    rc, out = run("total", "--bucket", 60, *day)
    assert rc == 0 and out.count("\n") == 1 + 24 * 60 and out.endswith(",1\n")
    assert run("total", "--bucket", 59.9, *day)[0] == 1  # 1,442 buckets
    monkeypatch.setattr(metrics, "MAX_BUCKETS", 24)
    assert run("hourly", "--all", *day)[1] == "hour,mean,samples\n" + "".join(
        f"{h},{int(h == 9)},1\n" for h in range(24))
    assert run("hourly", "--all", *day[:3], "2024-03-02T01:00:00Z", *day[4:])[0] == 1


@pytest.mark.parametrize("cell_size", ["1e-12", "5e-324"])
def test_extent_heatmap_past_the_cell_limit_exits_1(tmp_path, capsys, cell_size):
    store, config = _tiny_store(tmp_path, boxes=((100, 200, 50, 100), (1500, 600, 50, 100)))
    capsys.readouterr()
    out = tmp_path / "heat.pgm"
    rc, stdout = run(*HEATMAP, "--mode", "extent", "--cell-size", cell_size, "--sigma", 0, "--out", out,
                     "--store", store, "--config", config)
    assert (rc, stdout) == (1, "") and not out.exists()
    assert capsys.readouterr().err.startswith("svaa: GridTooLarge: ")


@pytest.mark.parametrize("key", ["cols", "rows"])
def test_configured_grid_side_past_the_limit_exits_1(tmp_path, capsys, key):
    store, config = _tiny_store(tmp_path)
    out = tmp_path / "heat.pgm"
    for side, code in ((1024, 0), (1025, 1)):
        config.write_text(json.dumps({**json.loads(config.read_text()), "heatmap": {key: side, "sigma": 0}}))
        capsys.readouterr()
        assert run(*HEATMAP, "--out", out, "--store", store, "--config", config)[0] == code
    assert capsys.readouterr().err.startswith(f"svaa: InvalidConfig: heatmap.{key} must be an integer in [1, 1025)")


def test_at_answers_with_history_older_than_the_window_limit(tmp_path, capsys):
    """--at reads only a full FIFO of its bucket back, so a camera with 400 days of data still answers it."""
    times = ["2022-09-11T09:00:00Z",  # 400 days before the Monday below
             "2023-10-13T09:59:50Z", "2023-10-13T09:59:55Z",  # the Friday before: same bucket, one day-class run back
             "2023-10-14T09:00:05Z",  # Saturday: another bucket
             "2023-10-16T09:00:00Z", "2023-10-16T09:00:07Z", "2023-10-16T09:00:08Z", "2023-10-16T09:00:16Z"]
    store, config = tmp_path / "store", tmp_path / "config.json"
    config.write_text(json.dumps({"occupancy": {"min_samples": 2, "history_capacity": 3}}))
    ingest(store, config, tmp_path, [make_line(record_time=t, global_id=k) for k, t in enumerate(times, 1)])
    common = ("--camera", 1, "--store", store, "--config", config)
    assert run("occupancy", "--live", *common)[0] == 1  # the default span is the data extent, over 366 days
    assert "RangeTooLong" in capsys.readouterr().err
    rc, live = run("occupancy", "--live", "--from", "2023-10-12T00:00:00Z", "--to", "2023-10-16T09:01:00Z", *common)
    assert rc == 0
    rows = {json.loads(line)["window_start"]: line for line in live.splitlines(keepends=True)}
    seen = set()
    for second in range(0, 60, 5):
        window = f"2023-10-16T09:00:{second:02d}Z"
        rc, out = run("occupancy", "--at", window, *common)
        assert rc == 0 and out == rows[window].replace(f'"window_start":"{window}",', ""), window
        seen.add(json.loads(out)["level"])
    assert seen == {"NORMAL", "HIGH", "LOW"}
    rc, out = run("occupancy", "--at", "9999-12-31T23:59:54Z", *common)  # a FIFO of empty windows, all past the data
    assert rc == 0 and json.loads(out) == {"count": 0, "level": "LOW", "p25": 0, "p75": 0,
                                           "bucket": "camera=1 hour=23 WEEKDAY"}


def _tiny_store(tmp_path, boxes=((100, 200, 50, 100),)):
    """A store of camera 1 with one record per box at 2023-10-16T09:00:01Z, and a config that sets camera 1."""
    store, path = tmp_path / "store", tmp_path / "config.json"
    path.write_text(json.dumps({"cameras": [{"camera_id": 1, "min_teta": 20.0, "max_teta": 60.0}]}))
    ingest(store, path, tmp_path, [make_line(record_time=f"{DAY}T09:00:01Z", bbox=box, global_id=k)
                                   for k, box in enumerate(boxes, 1)])
    return store, path


SPAN = ("--from", T0, "--to", T1)
HEATMAP = ("heatmap", "--camera", 1, "--date", DAY)


BAD_NUMBERS = [  # argv, config document, exit code, error class, start of its message
    (("total", "--bucket", 0, *SPAN), {}, 2, "UsageError", "--bucket must be a number in (5e-07, "),
    (("total", "--bucket", "0.0000001", *SPAN), {}, 2, "UsageError", "--bucket must be"),  # rounds to 0 µs
    (("total", "--bucket", -60, *SPAN), {}, 2, "UsageError", "--bucket must be"),
    (("total", "--bucket", "1e20", *SPAN), {}, 2, "UsageError", "--bucket must be"),  # past timedelta.max
    (("peaks", "--all", "--top", 0, *SPAN), {}, 2, "UsageError", "--top must be an integer in [1, inf)"),
    (("current", "--staleness", 0), {}, 2, "UsageError", "--staleness must be"),
    (("current", "--staleness", "nan"), {}, 2, "UsageError", "--staleness must be"),
    ((*HEATMAP, "--gamma", 0), {}, 2, "UsageError", "--gamma must be a number in (0, inf)"),
    ((*HEATMAP, "--mode", "extent", "--cell-size", 0), {}, 2, "UsageError", "--cell-size must be"),
    ((*HEATMAP, "--sigma", -1), {}, 2, "UsageError", "--sigma must be a number in [0, 1024)"),
    ((*HEATMAP, "--sigma", "inf"), {}, 2, "UsageError", "--sigma must be"),
    (("occupancy", "--camera", 1, "--at", T0), {"occupancy": {"history_capacity": 0}}, 1, "InvalidConfig",
     "occupancy.history_capacity must be an integer in [1, inf), got 0"),
    (("occupancy", "--camera", 1, "--at", T0), {"occupancy": {"min_samples": 0}}, 1, "InvalidConfig",
     "occupancy.min_samples must be"),
    (("anomaly", "--camera", 1, "--replay", f"{T0}..{T1}"), {"anomaly": {"min_samples": -3}}, 1, "InvalidConfig",
     "anomaly.min_samples must be an integer in [0, inf), got -3"),
    (HEATMAP, {"heatmap": {"cols": 0}}, 1, "InvalidConfig", "heatmap.cols must be"),
    (HEATMAP, {"heatmap": {"rows": 2.5}}, 1, "InvalidConfig", "heatmap.rows must be"),
    (HEATMAP, {"heatmap": {"gamma": 0}}, 1, "InvalidConfig", "heatmap.gamma must be"),
    (HEATMAP, {"heatmap": {"sigma": -1}}, 1, "InvalidConfig", "heatmap.sigma must be"),
    (("current",), {"staleness_s": True}, 1, "InvalidConfig", "staleness_s must be"),
]


@pytest.mark.parametrize("argv, config, code, error, message", BAD_NUMBERS,
                         ids=[f"{message.split()[0].lstrip('-')}-{code}-{error}" for *_, code, error, message in BAD_NUMBERS])
def test_bad_numbers_end_in_a_typed_error(tmp_path, capsys, argv, config, code, error, message):
    """Exit 2 is a UsageError ("svaa: <message>"); exit 1 an AnalyticsError ("svaa: <class>: <message>")."""
    store, path = _tiny_store(tmp_path)
    capsys.readouterr()
    path.write_text(json.dumps({**json.loads(path.read_text()), **config}))
    out = tmp_path / "heat.pgm"
    rc, stdout = run(*argv, "--store", store, "--config", path, *(("--out", out) if argv[0] == "heatmap" else ()))
    prefix = "svaa: " if error == "UsageError" else f"svaa: {error}: "
    assert (rc, stdout) == (code, "") and capsys.readouterr().err.startswith(prefix + message)
    assert not out.exists()


def test_sigma_0_still_turns_smoothing_off(tmp_path):
    store, config = _tiny_store(tmp_path)
    peaks = []
    for sigma in (0, 1):
        rc, out = run(*HEATMAP, "--sigma", sigma, "--out", tmp_path / "heat.csv", "--store", store, "--config", config)
        assert rc == 0
        peaks.append(float(out.split()[1].removeprefix("peak=")))
    assert peaks[0] == 1 > peaks[1]  # one point: unsmoothed, its cell holds all of the mass


def test_a_sigma_of_1024_cells_or_more_is_refused(tmp_path, capsys):
    """A sigma of 1e9 cells asked for a 45 GiB kernel, and 1e20 ended in a bare ValueError."""
    store, config = _tiny_store(tmp_path)
    out = tmp_path / "heat.pgm"
    assert run(*HEATMAP, "--sigma", 1023.5, "--out", out, "--store", store, "--config", config)[0] == 0
    for sigma in (1024, 1e9, 1e20):
        capsys.readouterr()
        assert run(*HEATMAP, "--sigma", sigma, "--out", out, "--store", store, "--config", config) == (2, "")
        assert capsys.readouterr().err.startswith("svaa: --sigma must be a number in [0, 1024)")
    config.write_text(json.dumps({**json.loads(config.read_text()), "heatmap": {"sigma": 1e20}}))
    assert run(*HEATMAP, "--out", out, "--store", store, "--config", config) == (1, "")
    assert capsys.readouterr().err.startswith("svaa: InvalidConfig: heatmap.sigma must be a number in [0, 1024)")


@pytest.mark.parametrize("command", [("bev", "--camera", 1, "--window", f"{DAY}T09:00:00Z"),
                                     (*HEATMAP, "--out", "heat.pgm")])
def test_box_past_the_configured_frame_exits_1(tmp_path, capsys, monkeypatch, command):
    """A box must fit the camera's configured frame to be projected; 1900 + 50 > 1920."""
    monkeypatch.chdir(tmp_path)
    store, config = _tiny_store(tmp_path, boxes=((100, 200, 50, 100), (1900, 0, 50, 100)))
    assert run(*command, "--store", store, "--config", config)[0] == 1
    assert "InvalidBBox: bbox [1900, 0, 50, 100] at 2023-10-16T09:00:01Z does not fit the 1920x1080 frame of camera 1" \
        in capsys.readouterr().err
    config.write_text(json.dumps({"cameras": [{"camera_id": 1, "min_teta": 20.0, "max_teta": 60.0, "width": 1950}]}))
    assert run(*command, "--store", store, "--config", config)[0] == 0


NOT_UTF8 = b'{"a":1}\n\xff\n' + make_line().encode() + b"\n\xc3(\n"  # lines 2 and 4 are not UTF-8


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_ingest_rejects_each_line_that_is_not_utf8_and_goes_on(tmp_path, monkeypatch, caplog, source):
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
        path = "-"
    else:
        path = tmp_path / "input.jsonl"
        path.write_bytes(NOT_UTF8)
    with caplog.at_level(logging.WARNING, logger="svaa.records"):
        rc, out = run("ingest", path, "--store", tmp_path / "store")
    assert rc == 0 and json.loads(out) == {"accepted": 1, "rejected": 3, "first_time": "2023-10-16T09:00:00Z",
                                           "last_time": "2023-10-16T09:00:00Z"}
    warnings = [record.getMessage() for record in caplog.records]
    assert [text.split(":")[0] for text in warnings] == ["rejected line 1", "rejected line 2", "rejected line 4"]
    assert "not UTF-8" in warnings[1] and "not UTF-8" in warnings[2]
    assert (tmp_path / "store" / "camera_00001.jsonl").read_text() == make_line() + "\n"


@pytest.mark.parametrize("day", ["20231016", "2023-W42-1", "2023W421", "2023-10-16T00:00:00Z", "2023-02-29", "x"])
def test_a_day_is_yyyy_mm_dd_and_nothing_else(tmp_path, capsys, day):
    """The heatmap's --date, and the holidays of a config and of a simulation profile."""
    assert parse_day("2023-10-16") == parse_day(" 2023-10-16\n") == 19646
    store, config = _tiny_store(tmp_path)
    capsys.readouterr()
    rc, out = run(*HEATMAP[:3], "--date", day, "--out", tmp_path / "heat.pgm", "--store", store, "--config", config)
    assert (rc, out) == (1, "") and capsys.readouterr().err == f"svaa: InvalidTimestamp: not a YYYY-MM-DD day {day!r}\n"
    config.write_text(json.dumps({"holidays": ["2023-10-12", day]}))
    assert run("occupancy", "--camera", 1, "--live", "--store", store, "--config", config) == (1, "")
    assert capsys.readouterr().err.startswith("svaa: InvalidConfig: bad config document: not a YYYY-MM-DD day")
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"cameras": [{"camera_id": 1, "hourly_rate": [1.0] * 24}], "holidays": [day]}))
    assert run("simulate", "--profile", profile, "--from", T0, "--to", T1, "--out", tmp_path / "sim.jsonl")[0] == 1
    assert capsys.readouterr().err.startswith("svaa: InvalidProfile: bad profile document: not a YYYY-MM-DD day")


@pytest.mark.parametrize("output", ["heatmap --out", "simulate --out", "simulate --truth"])
def test_an_output_in_a_missing_directory_exits_1(tmp_path, capsys, output):
    """A typed error that names the path, not a traceback."""
    command, option = output.split()
    path = tmp_path / "missing" / "out.csv"
    if command == "heatmap":
        store, config = _tiny_store(tmp_path)
        argv = (*HEATMAP, "--out", path, "--store", store, "--config", config)
    else:
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"cameras": [{"camera_id": 1, "hourly_rate": [1.0] * 24}]}))
        outputs = {"--out": tmp_path / "sim.jsonl", "--truth": tmp_path / "truth.csv", option: path}
        argv = ("simulate", "--profile", profile, "--from", T0, "--to", T1, *(w for item in outputs.items() for w in item))
    capsys.readouterr()
    assert run(*argv) == (1, "")
    assert capsys.readouterr().err.startswith(f"svaa: OutputUnwritable: cannot write {path}: ")


# What the CLI-never-raises property feeds to numeric options and config keys: edge values, then any.
NUMBER_TEXTS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1", "2.5", "1e-07", "5e-07", "nan", "inf", "-inf", "1e20", "1e400", "9" * 30,
                     "x", ""]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
)
CONFIG_VALUES = st.one_of(
    st.sampled_from([0, -1, 1, 2.5, 1e-7, float("nan"), float("inf"), -float("inf"), 10**30, 1e300, "x", None, True,
                     [], {}, "2023-10-16"]),
    st.integers(-2**70, 2**70),
    st.floats(),
)
# Instants within a day of the data, or at the ends of the RFC 3339 range, or not instants: a replay between
# two of them holds at most a day of windows, or is refused
TIMES = st.sampled_from([T0, T1, "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2023-10-16T09:00:00+14:00", DAY, "x"])
CONFIG_KEYS = [("occupancy", "min_samples"), ("occupancy", "history_capacity"), ("anomaly", "min_samples"),
               ("heatmap", "cols"), ("heatmap", "rows"), ("heatmap", "sigma"), ("heatmap", "gamma"),
               ("heatmap", "mode"), ("staleness_s",), ("holidays",), ("cameras", "camera_id"), ("cameras", "width"),
               ("cameras", "height"), ("cameras", "min_teta"), ("cameras", "max_teta"), ("occupancy",), ("heatmap",),
               ("cameras",)]


@st.composite
def argvs(draw) -> list[str]:
    """A read command with one numeric option, or none, set to a generated value, and the others sane."""
    span = ["--from", draw(TIMES), "--to", draw(TIMES)]
    heatmap = ["--date", draw(st.sampled_from([DAY, "20231016"])), "--out", "heat.pgm"]
    words, numbers = draw(st.sampled_from([
        (["current"], {"--staleness": "3600"}),
        (["current", "--at", draw(TIMES)], {"--staleness": "3600"}),
        (["hourly", *span], {"--camera": "1"}),
        (["hourly", "--location", "north", *span], {}),
        (["peaks", "--all", *span], {"--top": "3"}),
        (["peaks", *span], {"--camera": "1", "--top": "3"}),
        (["total", *span], {"--bucket": "600"}),
        (["occupancy", "--at", draw(TIMES)], {"--camera": "1"}),
        (["occupancy", "--live"], {"--camera": "1"}),
        (["occupancy", "--live", *span], {"--camera": "1"}),
        (["anomaly", "--replay", f"{draw(TIMES)}..{draw(TIMES)}"], {"--camera": "1"}),
        (["bev", "--window", draw(TIMES)], {"--camera": "1"}),
        (["heatmap", *heatmap], {"--camera": "1", "--sigma": "2", "--gamma": "0.5"}),
        (["heatmap", "--mode", "extent", *heatmap], {"--camera": "1", "--sigma": "2", "--cell-size": "0.5",
                                                     "--gamma": "0.5"}),
    ]))
    edge = draw(st.sampled_from([None, *numbers]))
    return [*words, *(text for option, sane in numbers.items()
                      for text in (option, draw(NUMBER_TEXTS) if option == edge else sane))]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A store of two boxes on camera 1 and a config that places camera 1 at "north"."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    store, config = _tiny_store(tmp_path, boxes=((100, 200, 50, 100), (1500, 600, 50, 100)))
    document = json.loads(config.read_text())
    document["cameras"][0]["location"] = "north"
    return tmp_path, store, document


@given(argvs(), st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES), max_size=1))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_cli_never_raises(tiny, monkeypatch, argv, overrides):
    """Whatever the numbers, main returns 0, 1 or 2; the bucket limit is lowered to keep each call small."""
    tmp_path, store, document = tiny
    document = json.loads(json.dumps(document))  # a deep copy
    for key, value in sorted(overrides, key=lambda item: -len(item[0])):  # a whole section last
        if key[0] == "cameras" and len(key) == 2:
            document["cameras"][0][key[1]] = value
        elif len(key) == 2:
            document.setdefault(key[0], {})[key[1]] = value
        else:
            document[key[0]] = value
    config = tmp_path / "property.json"
    config.write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(metrics, "MAX_BUCKETS", 10_000):
        assert cli.main([*argv, "--store", str(store), "--config", str(config)], out=io.StringIO()) in (0, 1, 2)
