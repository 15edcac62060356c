"""The benchmark's three workloads: their shapes, set-up and command cycles.

Every input is generated from `synth.default_profile(seed=...)`; the store
is built by `svaa ingest` and then driven only through `svaa.cli.main`.

- point_queries: a tenth-scale store (~135 k records) and a fixed cycle of
  eight read queries, each opening the store afresh. Opening (re-parsing the
  JSONL) dominates every call, so a store-open change shows here.
- replay_live: a small store (~68 k records) over the same 8-day span. Each
  call replays every 5-second window of the span (138,240 windows) for one
  camera, so replay and output formatting dominate and open is a minor share.
- ingest_append: a tenth-scale store holding the first 7 days; the 8th
  day arrives as batch files with ~1% malformed lines, each batch ingested
  and followed by a `current` query over everyone stored, whose answer
  changes with every batch. This is the write path, and the read that
  follows a write.
"""

from __future__ import annotations

import bisect
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

from check import US_PER_DAY, WINDOW_US, Sink, Stream, hourly_expected, line_time, stamp_us
from reference import Reference
from spans import Tracer, patched

from svaa import cli, synth
from svaa.timeutil import from_us, to_us


@dataclass(frozen=True)
class Shape:
    """The input sizes that the self-test shrinks."""

    rate_scale: float
    span: tuple = synth.DEFAULT_SPAN


SHAPES = {
    "point_queries": Shape(rate_scale=0.1),
    "replay_live": Shape(rate_scale=0.05),
    "ingest_append": Shape(rate_scale=0.1),
}

N_CAMERAS = 8

# point_queries: camera 1 of the north group on a Monday; the window that
# bev, occupancy --at and current --at look at is picked at set-up (facts)
QUERY_DAY = "2023-10-16"
QUERY_CAMERA = 1
QUERY_STALENESS_S = 3600  # current --at counts everyone seen in the hour before
TOP_HOURS = 3
MIN_WINDOW_PEOPLE = 2  # set-up fails if the query window holds fewer

# ingest_append: the last day of the span, split into batch files
HELD_BACK_DAYS = 1
BATCHES = 4
MALFORMED_PER_100 = 1  # malformed lines inserted per 100 good batch lines


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against."""

    label: str  # stable name; digests are pinned per label
    argv: tuple
    kind: str  # selects the Checker method
    fact: str = ""  # key of the set-up fact the output is checked against
    latency: bool = True  # counts toward call_p50_s
    work: bool = True  # counts toward work_per_s
    rows: int = 0
    header: bool = False
    top: int = 0
    out_file: str = ""


def _stamp(dt) -> str:
    return dt.isoformat().replace("+00:00", "Z")


def _locations() -> dict[int, str]:
    return {c: ("north" if c <= (N_CAMERAS + 1) // 2 else "south") for c in range(1, N_CAMERAS + 1)}


def write_config(path: Path, store: Path) -> None:
    cameras = [
        {"camera_id": c, "width": 1920, "height": 1080, "min_teta": 20.0, "max_teta": 70.0, "location": loc}
        for c, loc in _locations().items()
    ]
    doc = {"store": str(store), "cameras": cameras, "holidays": [d.isoformat() for d in synth.DEFAULT_HOLIDAYS]}
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------- set-up


def _malformed(line: str, kind: int) -> str:
    """A line that ingest rejects today: bad JSON, a missing field, or w <= 0."""
    if kind == 0:
        return line[:-9]
    if kind == 1:
        return line[:line.rindex(',"global_id"')] + "}"
    bbox_at = line.index('"bbox":[') + 8
    x, y, _w, h = line[bbox_at:line.index("]", bbox_at)].split(",")
    return f'{line[:bbox_at]}{x},{y},0,{h}{line[line.index("]", bbox_at):]}'


def _write_batches(lines: list[str], seed: int, root: Path) -> list[dict]:
    """Split lines into batch files with malformed lines inserted; returns per-batch counts."""
    rng = random.Random(seed)
    n = len(lines)
    batches = []
    for b in range(BATCHES):
        good = lines[b * n // BATCHES:(b + 1) * n // BATCHES]
        bad = [_malformed(rng.choice(good), i % 3) for i in range(len(good) * MALFORMED_PER_100 // 100)]
        mixed = list(good)
        for line in bad:
            mixed.insert(rng.randrange(len(mixed) + 1), line)
        path = root / f"batch_{b}.jsonl"
        path.write_text("".join(line + "\n" for line in mixed), encoding="utf-8")
        batches.append({"path": str(path), "accepted": len(good), "rejected": len(bad)})
    return batches


def build(workload: str, shape: Shape, seed: int, root: Path, want_facts: bool, trace: bool) -> dict:
    """Generate the workload's stream and bulk-ingest its base store under root.

    Runs in a child process so that the generator's allocations stay out of
    the benchmark's peak RSS. The set-up time covers generation, writing the
    input files and the `svaa ingest` call; deriving the checker's facts does
    not. It is returned in refs: divided by the mean of the reference
    kernel's runs just before and just after it (see reference.py).
    """
    reference = Reference()
    tracer = Tracer() if trace else None
    held_back = HELD_BACK_DAYS if workload == "ingest_append" else 0
    ref_before = reference.seconds()
    with patched(tracer) if tracer is not None else nullcontext():
        t_start = time.perf_counter()
        profile = synth.default_profile(seed=seed, rate_scale=shape.rate_scale, n_cameras=N_CAMERAS)
        line_iter, truth = synth.generate_lines(profile, *shape.span)
        lines = list(line_iter)
        cut = bisect.bisect_left(lines, to_us(shape.span[1] - timedelta(days=held_back)), key=line_time)
        base = root / "base.jsonl"
        base.write_text("".join(line + "\n" for line in lines[:cut]), encoding="utf-8")
        batches = _write_batches(lines[cut:], seed, root) if held_back else []
        rc = cli.main(["ingest", str(base), "--store", str(root / "store")], out=Sink())
        setup_s = time.perf_counter() - t_start
    ref_after = reference.seconds()
    if rc != 0:
        raise RuntimeError(f"set-up ingest exited with status {rc}")
    result = {
        "setup_ref": setup_s / ((ref_before + ref_after) / 2),
        "spans": [s.to_dict() for s in tracer.spans] if tracer else [],
    }
    if want_facts:
        truth_rows = [[c, d.isoformat(), h, n] for (c, d, h), n in truth.counts.items()]
        result["facts"] = facts(workload, shape, Stream(lines), cut, truth_rows, batches)
    return result


def _busiest_window(stream: Stream, day_us: int, camera: int) -> tuple[int, int]:
    """(start, people) of the camera's 5-second window with the most people that day; earliest wins ties."""
    people: dict[int, set] = {}
    for t, c, g in stream.fields(day_us, day_us + US_PER_DAY):
        if c == camera:
            people.setdefault(t - t % WINDOW_US, set()).add(g)
    start = min(people, key=lambda ws: (-len(people[ws]), ws))
    return start, len(people[start])


def facts(workload: str, shape: Shape, stream: Stream, cut: int, truth_rows: list, batches: list[dict]) -> dict:
    """Reference answers derived from the generated lines and GroundTruth.

    Set-up fails if an answer could not tell a right output from a wrong one:
    a query window with too few people, or an append that adds nobody.
    """
    t0_us, t1_us = to_us(shape.span[0]), to_us(shape.span[1])
    out: dict = {"distinct_gids": stream.all_gids(), "batches": batches}
    if workload == "point_queries":
        window, people = _busiest_window(stream, stamp_us(QUERY_DAY + "T00:00:00Z"), QUERY_CAMERA)
        if people < MIN_WINDOW_PEOPLE:
            raise RuntimeError(f"the busiest window of camera {QUERY_CAMERA} on {QUERY_DAY} holds {people} people")
        at = window + 2_000_000  # two seconds into the window
        day = stamp_us(QUERY_DAY + "T00:00:00Z")
        north = [c for c, loc in _locations().items() if loc == "north"]
        out.update({
            "query_window": _stamp(from_us(window)),
            "query_at": _stamp(from_us(at)),
            "current_at": len(stream.distinct_gids(at - QUERY_STALENESS_S * 1_000_000, at, right=True)),
            "occupancy_at": people,
            "hourly_all": hourly_expected(truth_rows, list(range(1, N_CAMERAS + 1)), t0_us, t1_us),
            "hourly_north": hourly_expected(truth_rows, north, t0_us, t1_us),
            "bev_gids": stream.distinct_gids(window, window + WINDOW_US, QUERY_CAMERA),
            "heatmap_points": stream.window_pairs(day, day + US_PER_DAY).get(QUERY_CAMERA, 0),
        })
    elif workload == "replay_live":
        pairs = stream.window_pairs(t0_us, t1_us)
        for c in range(1, N_CAMERAS + 1):
            out[f"window_sum_{c}"] = pairs.get(c, 0)
    elif workload == "ingest_append":
        # `current` after each append counts everyone in the store, so a store
        # that missed the newest batch answers with the previous batch's count
        n = len(stream.lines) - cut
        seen = stream.gids(0, cut)
        for b, batch in enumerate(batches):
            first = cut + b * n // BATCHES
            last = cut + (b + 1) * n // BATCHES - 1
            before = len(seen)
            seen |= stream.gids(first, last + 1)
            if len(seen) == before:
                raise RuntimeError(f"batch {b} brings no new people; a stale read would pass")
            out[f"ingest_{b}"] = {
                "accepted": batch["accepted"], "rejected": batch["rejected"],
                "first_time": stream.stamp(first), "last_time": stream.stamp(last),
            }
            out[f"current_{b}"] = len(seen)
    return out


# ---------------------------------------------------------------- cycles


class Workload:
    def __init__(self, name: str, shape: Shape, work: Path, setup: dict):
        self.name = name
        self.shape = shape
        self.work = work
        self.base_store = work / "store"
        self.store = work / "live_store" if name == "ingest_append" else self.base_store
        self.config = work / "config.json"
        self.facts = setup["facts"]
        write_config(self.config, self.store)
        self.span_from, self.span_to = (_stamp(t) for t in shape.span)

    def _argv(self, *args) -> tuple:
        return (*args, "--config", str(self.config))

    def reset(self) -> None:
        """Start a cycle from the base store (ingest_append appends to a copy)."""
        if self.store != self.base_store:
            shutil.rmtree(self.store, ignore_errors=True)
            shutil.copytree(self.base_store, self.store)

    def cycle(self, k: int) -> list[Op]:
        return getattr(self, "_" + self.name)(k)

    def _point_queries(self, k: int) -> list[Op]:
        span = ("--from", self.span_from, "--to", self.span_to)
        at, window = self.facts["query_at"], self.facts["query_window"]
        heat = str(self.work / "heat.pgm")
        n_buckets = (to_us(self.shape.span[1]) - to_us(self.shape.span[0])) // 60_000_000
        return [
            Op("current_at", self._argv("current", "--at", at, "--staleness", str(QUERY_STALENESS_S)),
               "count", "current_at"),
            Op("occupancy_at", self._argv("occupancy", "--camera", str(QUERY_CAMERA), "--at", at),
               "occupancy_at", "occupancy_at"),
            Op("hourly_all", self._argv("hourly", "--all", *span), "hourly", "hourly_all"),
            Op("hourly_north", self._argv("hourly", "--location", "north", *span), "hourly", "hourly_north"),
            Op("peaks_all", self._argv("peaks", "--all", "--top", str(TOP_HOURS), *span), "peaks",
               "hourly_all", top=TOP_HOURS),
            Op("total_60", self._argv("total", "--bucket", "60", *span), "total", rows=n_buckets),
            Op("bev", self._argv("bev", "--camera", str(QUERY_CAMERA), "--window", window), "bev", "bev_gids"),
            Op("heatmap", self._argv("heatmap", "--camera", str(QUERY_CAMERA), "--date", QUERY_DAY, "--out", heat),
               "heatmap", "heatmap_points", out_file=heat),
        ]

    def _replay_live(self, k: int) -> list[Op]:
        n_windows = (to_us(self.shape.span[1]) - to_us(self.shape.span[0])) // WINDOW_US
        cam = k % N_CAMERAS + 1
        return [
            Op(f"occupancy_live_{cam}", self._argv("occupancy", "--camera", str(cam), "--live",
                                                   "--from", self.span_from, "--to", self.span_to),
               "replay", f"window_sum_{cam}", rows=n_windows),
            Op(f"anomaly_{cam}", self._argv("anomaly", "--camera", str(cam),
                                            "--replay", f"{self.span_from}..{self.span_to}"),
               "replay", f"window_sum_{cam}", rows=n_windows, header=True),
        ]

    def _ingest_append(self, k: int) -> list[Op]:
        # a staleness of the whole span: `current` counts every person stored
        everyone = str((self.shape.span[1] - self.shape.span[0]).total_seconds())
        ops = []
        for b, batch in enumerate(self.facts["batches"]):
            ops += [
                Op(f"ingest_{b}", self._argv("ingest", batch["path"]), "ingest", f"ingest_{b}", latency=False),
                Op(f"current_{b}", self._argv("current", "--staleness", everyone), "count", f"current_{b}",
                   work=False),
            ]
        return ops
