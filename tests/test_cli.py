"""CLI outputs: the same bytes whatever state the snapshots are in; camera groups; the writer lock."""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from datetime import datetime

import numpy as np
import pytest

from svaa import cli, synth
from svaa.records import RecordStore, parse_record

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
    holder.append(parse_record(make_line(global_id=1)))
    try:
        src = tmp_path / "more.jsonl"
        src.write_text(make_line(camera_id=2, global_id=2) + "\n")
        rc, _ = run("ingest", src, "--store", store)
        assert rc == 1
        assert "StoreLocked" in capsys.readouterr().err
    finally:
        holder.close()
