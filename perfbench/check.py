"""Output checker: every CLI operation either passes or counts as failed.

Two kinds of reference. Facts derived at set-up from the generated stream
itself (its lines and the generator's GroundTruth) check any seed: ingest
accepted/rejected counts, hourly means, peak ranking, the final cumulative
total, distinct counts in single windows, the number of bird's-eye points,
heatmap mass and the window counts summed over a replay. Outputs that
depend on the analytics' own arithmetic (occupancy levels, anomaly moments,
projected coordinates, rendered pixels) are compared by SHA-256 digest,
pinned for the default seed in digests.json. A digest covers the payload:
the heatmap file's bytes and the stdout line without its temp path.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
ONE_US = timedelta(microseconds=1)
WINDOW_US = 5_000_000
US_PER_HOUR = 3_600_000_000
US_PER_DAY = 24 * US_PER_HOUR
DIGESTS = Path(__file__).with_name("digests.json")


def stamp_us(stamp: str) -> int:
    dt = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    return (dt - EPOCH) // ONE_US


def line_time(line: str) -> int:
    return stamp_us(line[16:line.index('"', 16)])


def line_fields(line: str) -> tuple[int, int, int]:
    """(time_us, camera_id, global_id) of one generated record line."""
    cam_at = line.index('"camera_id":') + 12
    camera = int(line[cam_at:line.index(",", cam_at)])
    gid = int(line[line.rindex(":") + 1:-1])
    return line_time(line), camera, gid


class Stream:
    """Time-sorted generated lines, with independent lookups for the oracle.

    Only the lines a lookup needs are parsed, found by bisection on time.
    """

    def __init__(self, lines: list[str]):
        self.lines = lines

    def stamp(self, i: int) -> str:
        line = self.lines[i]
        return line[16:line.index('"', 16)]

    def time(self, i: int) -> int:
        return line_time(self.lines[i])

    def fields(self, t0_us: int, t1_us: int, right: bool = False) -> list[tuple[int, int, int]]:
        """Fields of the lines with t0 <= t < t1, or t0 < t <= t1 when right."""
        side = bisect.bisect_right if right else bisect.bisect_left
        lo = side(self.lines, t0_us, key=line_time)
        hi = side(self.lines, t1_us, lo=lo, key=line_time)
        return [line_fields(line) for line in self.lines[lo:hi]]

    def gids(self, lo: int, hi: int) -> set[str]:
        """Global ids of lines lo..hi-1, as text."""
        return {line[line.rindex(":") + 1:-1] for line in self.lines[lo:hi]}

    def all_gids(self) -> int:
        return len(self.gids(0, len(self.lines)))

    def distinct_gids(self, t0_us: int, t1_us: int, camera: int | None = None, right: bool = False) -> list[int]:
        return sorted({g for _, c, g in self.fields(t0_us, t1_us, right) if camera is None or c == camera})

    def window_pairs(self, t0_us: int, t1_us: int) -> dict[int, int]:
        """Per camera: distinct (5-second window, global id) pairs in [t0, t1)."""
        pairs: dict[int, set] = {}
        for t, c, g in self.fields(t0_us, t1_us):
            pairs.setdefault(c, set()).add((t // WINDOW_US, g))
        return {c: len(p) for c, p in pairs.items()}


def hourly_expected(truth_rows: list[list], cameras: list[int], t0_us: int, t1_us: int) -> list[str]:
    """Expected `hourly` lines per hour of day, from GroundTruth (camera, date, hour, count) rows.

    Global ids are unique per camera, so a group's distinct count per hour is
    the sum of its cameras' ground-truth counts.
    """
    lo_hour, hi_hour = -(-t0_us // US_PER_HOUR), t1_us // US_PER_HOUR
    sums = [0] * 24
    cells = [0] * 24
    for h in range(lo_hour, hi_hour):
        cells[h % 24] += 1
    for camera, day, hour, count in truth_rows:
        h = stamp_us(f"{day}T{hour:02d}:00:00Z") // US_PER_HOUR
        if camera in cameras and lo_hour <= h < hi_hour:
            sums[hour] += count
    return [f"{hod},{sums[hod] / cells[hod]:.9g},{cells[hod]}" for hod in range(24) if cells[hod]]


# the window count in a replay's output line: occupancy JSON, or anomaly CSV's second column
OCCUPANCY_COUNT = re.compile(r'"count":(\d+),')
ANOMALY_COUNT = re.compile(r"^[^,\n]*,(\d+),", re.M)


class Sink:
    """Output stream for cli.main.

    A short output is kept whole in `parts` for the checker to parse. A
    replay's output (count_pattern given) is checked as it streams: every
    CHUNK lines are hashed, counted and their window counts summed, then
    dropped, so the benchmark's own memory does not grow with the output.
    `busy_s` is the time spent on that inside the call, which the caller
    takes out of the call's time.
    """

    CHUNK = 4096

    def __init__(self, count_pattern: re.Pattern | None = None):
        self.parts: list[str] = []
        self.lines = 0
        self.bytes = 0
        self.window_sum = 0
        self.busy_s = 0.0
        self._sha = hashlib.sha256()
        self._pattern = count_pattern
        self.write = self.parts.append if count_pattern is None else self._write_streamed

    def _write_streamed(self, text: str) -> None:
        self.parts.append(text)
        if len(self.parts) >= self.CHUNK:
            self._flush()

    def _flush(self) -> None:
        t = time.perf_counter()
        chunk = "".join(self.parts)
        self.parts.clear()
        self._sha.update(chunk.encode())
        self.lines += chunk.count("\n")
        self.bytes += len(chunk)
        self.window_sum += sum(map(int, self._pattern.findall(chunk)))
        self.busy_s += time.perf_counter() - t

    def close(self) -> None:
        """Account for what is still buffered; a kept output stays in `parts`."""
        if self._pattern is not None:
            self._flush()
        else:
            self.bytes = sum(map(len, self.parts))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def sink_for(op) -> Sink:
    if op.kind != "replay":
        return Sink()
    return Sink(ANOMALY_COUNT if op.header else OCCUPANCY_COUNT)


def digest(parts: list[str], payload: bytes = b"") -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    h.update(payload)
    return h.hexdigest()


class Checker:
    """Counts attempted and failed operations; keeps each output's digest."""

    def __init__(self, facts: dict, pinned: dict[str, str] | None = None):
        self.facts = facts
        self.pinned = pinned or {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{op.label}: {why}")
        return ok

    def check(self, op, rc: int | None, sink: Sink, error: str = "") -> bool:
        """Check a closed sink's output."""
        if error:
            return self.record(op, False, error)
        if rc != 0:
            return self.record(op, False, f"exit status {rc}")
        parts = sink.parts
        if op.kind == "replay":
            value = sink.hexdigest()
        elif op.kind == "heatmap":
            text = "".join(parts)
            path, _, rest = text.partition(" ")
            if path != op.out_file:
                return self.record(op, False, f"unexpected output line {text!r}")
            parts = [rest]
            value = digest(parts, Path(op.out_file).read_bytes())
        else:
            value = digest(parts)
        self.digests[op.label] = value
        want = self.pinned.get(op.label)
        if want is not None and want != value:
            return self.record(op, False, "payload digest differs from the pinned one")
        try:
            why = getattr(self, "_" + op.kind)(op, sink if op.kind == "replay" else parts)
        except (ValueError, KeyError, IndexError) as exc:
            why = f"unparseable output: {exc!r}"
        return self.record(op, not why, why)

    # Each returns "" when the output matches what the facts determine.

    def _count(self, op, parts):
        got = int("".join(parts))
        want = self.facts[op.fact]
        return "" if got == want else f"count {got}, expected {want}"

    def _occupancy_at(self, op, parts):
        obj = json.loads("".join(parts))
        want = self.facts[op.fact]
        if obj["count"] != want:
            return f"count {obj['count']}, expected {want}"
        return "" if obj["level"] in ("UNKNOWN", "LOW", "NORMAL", "HIGH") else f"level {obj['level']!r}"

    def _hourly(self, op, parts):
        want = ["hour,mean,samples\n"] + [line + "\n" for line in self.facts[op.fact]]
        return "" if parts == want else "hourly means differ from ground truth"

    def _peaks(self, op, parts):
        rows = [line.split(",") for line in self.facts[op.fact]]
        ranked = sorted(rows, key=lambda r: (-float(r[1]), int(r[0])))[:op.top]
        want = ["hour,mean\n"] + [f"{r[0]},{r[1]}\n" for r in ranked]
        return "" if parts == want else "peak hours differ from ground truth"

    def _total(self, op, parts):
        lines = "".join(parts).splitlines()
        values = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        if len(values) != op.rows:
            return f"{len(values)} buckets, expected {op.rows}"
        if any(b < a for a, b in zip(values, values[1:])):
            return "cumulative series decreases"
        want = self.facts["distinct_gids"]
        return "" if values[-1] == want else f"final total {values[-1]}, expected {want}"

    def _bev(self, op, parts):
        lines = "".join(parts).splitlines()
        gids = sorted(int(line.split(",", 1)[0]) for line in lines[1:])
        return "" if gids == self.facts[op.fact] else "bird's-eye point ids differ from the window's people"

    def _heatmap(self, op, parts):
        mass = float(parts[0].rsplit("mass=", 1)[1])
        want = self.facts[op.fact]
        return "" if abs(mass - want) <= 1e-6 * max(want, 1) else f"mass {mass}, expected {want} points"

    def _replay(self, op, sink):
        rows = sink.lines - op.header
        if rows != op.rows:
            return f"{rows} windows, expected {op.rows}"
        total = sink.window_sum
        want = self.facts[op.fact]
        return "" if total == want else f"window counts sum to {total}, expected {want}"

    def _ingest(self, op, parts):
        obj = json.loads("".join(parts))
        want = self.facts[op.fact]
        got = {k: obj[k] for k in want}
        return "" if got == want else f"ingest report {got}, expected {want}"


def load_pinned(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
