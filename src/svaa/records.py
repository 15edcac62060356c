"""Detection-record schema, the append-only store, and windowed distinct counts.

Records arrive as newline-delimited JSON objects, one detection per line.
They are persisted verbatim into one append-only file per camera,
`camera_NNNNN.jsonl`; queries run against per-camera in-memory indexes
(time-sorted numpy columns) that are rebuilt lazily at the first read after
an append. That rebuild point is the ingest boundary of the concurrency
contract: a single writer appends, readers see immutable indexes.

The JSONL files are the source of truth. Beside each one sits a columnar
snapshot, `camera_NNNNN.snap.npz`, so that opening a store does not re-parse
what was validated at ingest (a snapshot plus a log tail, as in an LSM
tree). It holds the eight record columns in append order, the sparse
feature/batch_id extras as JSON bytes, and a stamp: the length N of the
newline-terminated file prefix whose rows it holds, and the SHA-256 of
those N bytes. On open a snapshot is used only if N fits in the file and
the digest of the file's first N bytes matches; otherwise the whole file is
parsed. Either way only the bytes past the snapshot are parsed, with line
numbers counted from the start of the file. Opening rewrites a missing or
stale snapshot and close() refreshes the snapshot of every camera the
handle appended to; both are best effort, a failure is logged and changes
no answer. The zip container's CRC-32 guards the snapshot's own bytes.

One writer at a time: a handle takes an advisory `flock` on `<store>/.lock`
at its first append and holds it until close(); a second writer gets
StoreLocked. The lock is what lets close() stamp a snapshot with the bytes
the handle parsed plus the bytes it wrote: if the file's length differs,
no snapshot is written. A crash during an append can leave an unterminated
last line. Opening keeps it if it parses and skips it with a warning if
not; before its first append, a writer ends such a line with a newline or,
if it does not parse, cuts it off. A malformed line anywhere else raises
MalformedLine with its line number.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import tempfile
import zipfile
from array import array
from dataclasses import dataclass
from datetime import datetime
from math import isfinite
from pathlib import Path
from typing import Iterable

import numpy as np

from . import timeutil
from .errors import (
    InvalidBBox,
    InvalidTimestamp,
    InvertedRange,
    MalformedLine,
    StoreLocked,
    StoreUnwritable,
)
from .timeutil import WINDOW_US, from_us, to_us

logger = logging.getLogger(__name__)

HUMAN_CLASS = 0


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel box: top-left corner plus width and height."""

    x: float
    y: float
    w: float
    h: float


@dataclass(slots=True)
class DetectionRecord:
    """One stored detection: who (ids), where (camera, box), and when."""

    record_time: datetime
    camera_id: int
    class_id: int
    bbox: BoundingBox
    local_id: int
    global_id: int
    feature: str | None = None  # opaque pass-through, never interpreted
    batch_id: object | None = None  # upstream tag, ignored by analytics

    @property
    def time_us(self) -> int:
        return to_us(self.record_time)


@dataclass(frozen=True, slots=True)
class IntervalCount:
    """Distinct people seen by one camera in one 5-second window."""

    camera_id: int
    window_start: datetime
    count: int


@dataclass(slots=True)
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    first_time: datetime | None = None
    last_time: datetime | None = None


_NUMBER = (int, float)
_INT64_MAX = 2**63 - 1  # ids and classes are stored as int64 columns


def _parse_fields(line: str) -> tuple:
    """Validate one record line into a flat field tuple (the hot ingest path).

    Returns (time_us, camera_id, class_id, x, y, w, h, local_id, global_id,
    feature, batch_id).
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, TypeError) as exc:
        raise MalformedLine(f"not a JSON record: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine("record line must be a JSON object")
    try:
        time_text = obj["record_time"]
        camera_id = obj["camera_id"]
        class_id = obj["class_id"]
        raw_bbox = obj["bbox"]
        local_id = obj["local_id"]
        global_id = obj["global_id"]
    except KeyError as exc:
        raise MalformedLine(f"missing field {exc.args[0]}") from exc

    time_us = timeutil.parse_rfc3339(time_text)
    if type(camera_id) is not int or not 0 < camera_id <= _INT64_MAX:
        raise MalformedLine(f"camera_id must be a positive 64-bit integer, got {camera_id!r}")
    if type(class_id) is not int or not 0 <= class_id <= _INT64_MAX:
        raise MalformedLine(f"class_id must be a nonnegative 64-bit integer, got {class_id!r}")
    if type(local_id) is not int or not 0 < local_id <= _INT64_MAX:
        raise MalformedLine(f"local_id must be a positive 64-bit integer, got {local_id!r}")
    if type(global_id) is not int or not 0 < global_id <= _INT64_MAX:
        raise MalformedLine(f"global_id must be a positive 64-bit integer, got {global_id!r}")

    if type(raw_bbox) is not list or len(raw_bbox) != 4:
        raise MalformedLine(f"bbox must be a 4-element array, got {raw_bbox!r}")
    x, y, w, h = raw_bbox
    # exact types: a JSON true is a Python bool, which isinstance counts as an int
    if not (type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER and type(h) in _NUMBER):
        raise MalformedLine(f"bbox must be numeric, got {raw_bbox!r}")
    try:
        finite = isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise MalformedLine(f"bbox must be finite, got {raw_bbox!r}")
    if w <= 0 or h <= 0:
        raise InvalidBBox(f"bbox extent must be positive, got w={w} h={h}")
    if x < 0 or y < 0:
        raise InvalidBBox(f"bbox origin must be nonnegative, got x={x} y={y}")

    feature = obj.get("feature")
    if feature is not None and not isinstance(feature, str):
        raise MalformedLine("feature must be a string blob")

    return time_us, camera_id, class_id, x, y, w, h, local_id, global_id, feature, obj.get("batch_id")


def parse_record(line: str) -> DetectionRecord:
    """Parse one serialized record line, validating the schema.

    Raises MalformedLine for structural problems, InvalidTimestamp for a bad
    record_time, and InvalidBBox for a degenerate box. The optional feature
    blob is retained unmodified; an optional batch_id is kept but ignored.
    """
    time_us, camera_id, class_id, x, y, w, h, local_id, global_id, feature, batch_id = _parse_fields(line)
    return DetectionRecord(
        record_time=from_us(time_us),
        camera_id=camera_id,
        class_id=class_id,
        bbox=BoundingBox(x, y, w, h),
        local_id=local_id,
        global_id=global_id,
        feature=feature,
        batch_id=batch_id,
    )


def _format_pixel(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def format_record(rec: DetectionRecord) -> str:
    """Serialize a record back to the canonical one-line form."""
    bbox = ",".join(_format_pixel(v) for v in (rec.bbox.x, rec.bbox.y, rec.bbox.w, rec.bbox.h))
    parts = [
        f'"record_time":"{timeutil.format_rfc3339(rec.time_us)}"',
        f'"camera_id":{rec.camera_id}',
        f'"class_id":{rec.class_id}',
        f'"bbox":[{bbox}]',
        f'"local_id":{rec.local_id}',
        f'"global_id":{rec.global_id}',
    ]
    if rec.feature is not None:
        parts.append(f'"feature":{json.dumps(rec.feature)}')
    if rec.batch_id is not None:
        parts.append(f'"batch_id":{json.dumps(rec.batch_id)}')
    return "{" + ",".join(parts) + "}"


class _CameraIndex:
    """Immutable time-sorted snapshot of one camera's columns."""

    __slots__ = ("times", "class_ids", "global_ids", "local_ids", "x", "y", "w", "h", "rows")

    def __init__(self, log: "_CameraLog"):
        times = np.frombuffer(log.times, dtype=np.int64)
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.class_ids = np.frombuffer(log.class_ids, dtype=np.int64)[order]
        self.global_ids = np.frombuffer(log.global_ids, dtype=np.int64)[order]
        self.local_ids = np.frombuffer(log.local_ids, dtype=np.int64)[order]
        self.x = np.frombuffer(log.x, dtype=np.float64)[order]
        self.y = np.frombuffer(log.y, dtype=np.float64)[order]
        self.w = np.frombuffer(log.w, dtype=np.float64)[order]
        self.h = np.frombuffer(log.h, dtype=np.float64)[order]
        self.rows = order  # original append positions, for sparse extras

    def __len__(self) -> int:
        return len(self.times)

    def slice(self, t0_us: int, t1_us: int) -> tuple[int, int]:
        """Positions covering t0 <= time < t1."""
        lo = int(np.searchsorted(self.times, t0_us, side="left"))
        hi = int(np.searchsorted(self.times, t1_us, side="left"))
        return lo, hi


_EMPTY_LOG: "_CameraLog | None" = None

# snapshot columns in _CameraLog order, with their array typecodes
_COLUMNS = (("times", "q"), ("class_ids", "q"), ("global_ids", "q"), ("local_ids", "q"),
            ("x", "d"), ("y", "d"), ("w", "d"), ("h", "d"))
_DTYPES = {"q": np.dtype(np.int64), "d": np.dtype(np.float64)}
_CHUNK = 1 << 20  # bytes read at a time when hashing part of a file
_LINE_ERRORS = (MalformedLine, InvalidTimestamp, InvalidBBox)


class _CameraLog:
    """Append buffers for one camera plus its lazily built index."""

    __slots__ = ("times", "class_ids", "global_ids", "local_ids", "x", "y", "w", "h", "extras", "_index")

    def __init__(self):
        self.times = array("q")
        self.class_ids = array("q")
        self.global_ids = array("q")
        self.local_ids = array("q")
        self.x = array("d")
        self.y = array("d")
        self.w = array("d")
        self.h = array("d")
        self.extras: dict[int, tuple[str | None, object]] = {}
        self._index: _CameraIndex | None = None

    def __len__(self) -> int:
        return len(self.times)

    def append_fields(self, fields: tuple) -> None:
        """Append one row from a _parse_fields tuple."""
        time_us, _, class_id, x, y, w, h, local_id, global_id, feature, batch_id = fields
        if feature is not None or batch_id is not None:
            self.extras[len(self.times)] = (feature, batch_id)
        self.times.append(time_us)
        self.class_ids.append(class_id)
        self.global_ids.append(global_id)
        self.local_ids.append(local_id)
        self.x.append(x)
        self.y.append(y)
        self.w.append(w)
        self.h.append(h)
        self._index = None

    def load_snapshot(self, snap: "_Snapshot") -> None:
        """Fill this empty log with a snapshot's rows, releasing its columns as they are copied."""
        for name, _ in _COLUMNS:
            getattr(self, name).frombytes(snap.columns.pop(name).view(np.uint8))
        self.extras.update((row, (feature, batch_id)) for row, feature, batch_id in snap.extras)
        self._index = None

    def index(self) -> _CameraIndex:
        if self._index is None:
            self._index = _CameraIndex(self)
        return self._index


def _empty_index() -> _CameraIndex:
    global _EMPTY_LOG
    if _EMPTY_LOG is None:
        _EMPTY_LOG = _CameraLog()
    return _EMPTY_LOG.index()


@dataclass(slots=True)
class _Snapshot:
    covered: int  # length of the file prefix whose rows the columns hold
    digest: bytes  # SHA-256 of that prefix
    columns: dict[str, np.ndarray]
    extras: list  # [row, feature, batch_id] for rows that carry either


def _read_snapshot(path: Path) -> _Snapshot | None:
    """The snapshot at path, or None if it is missing or not well formed."""
    try:
        with np.load(path, allow_pickle=False) as z:
            snap = _Snapshot(int(z["covered"]), z["sha256"].tobytes(),
                             {name: z[name] for name, _ in _COLUMNS}, json.loads(z["extras"].tobytes()))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        logger.warning("ignoring snapshot %s: %s", path, exc)
        return None
    rows = len(snap.columns["times"])
    well_formed = (
        snap.covered >= 0 and len(snap.digest) == 32
        and all(snap.columns[name].shape == (rows,) and snap.columns[name].dtype == _DTYPES[code]
                for name, code in _COLUMNS)
        and isinstance(snap.extras, list)
        and all(type(e) is list and len(e) == 3 and type(e[0]) is int and 0 <= e[0] < rows
                and (e[1] is None or type(e[1]) is str) for e in snap.extras)
    )
    if not well_formed:
        logger.warning("ignoring snapshot %s: columns or stamp not well formed", path)
        return None
    return snap


def _hash_next(fh, n: int, sha) -> None:
    """Feed the next n bytes of fh (fewer at end of file) to sha."""
    while n > 0:
        chunk = fh.read(min(n, _CHUNK))
        if not chunk:
            break
        sha.update(chunk)
        n -= len(chunk)


def _lines_before(path: Path, n: int) -> int:
    """Newlines in the file's first n bytes, to number the lines past them."""
    with path.open("rb") as fh:
        return fh.read(n).count(b"\n")


def _parse_stored(raw: bytes) -> tuple | None:
    """Fields of one stored line, or None for a blank one."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"not UTF-8: {exc}") from exc
    return _parse_fields(line) if line else None


class _CameraFile:
    """What one store handle knows of a camera's JSONL file.

    The first `covered` bytes are newline-terminated lines whose rows the
    camera's log holds, and `sha` is the SHA-256 state over those bytes.
    `torn` is an unterminated last line past them; `torn_row` says that it
    parsed and is the log's last row. `written` counts the bytes appended
    through `fh` since the last snapshot refresh.
    """

    __slots__ = ("path", "snap", "covered", "sha", "torn", "torn_row", "fh", "written")

    def __init__(self, path: Path):
        self.path = path
        self.snap = path.with_name(path.stem + ".snap.npz")
        self.covered = 0
        self.sha = hashlib.sha256()
        self.torn = b""
        self.torn_row = False
        self.fh = None
        self.written = 0


class RecordStore:
    """Append-only detection store, one newline-delimited file per camera.

    Pass root=None for a memory-only store (tests, throwaway pipelines).
    Single-writer append; reads take per-camera snapshots at ingest
    boundaries, so a store handle may move between threads as long as only
    one of them writes. A disk store's writer holds the store's lock from
    its first append until close().
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None
        self._logs: dict[int, _CameraLog] = {}
        self._files: dict[int, _CameraFile] = {}
        self._lock = None  # the open lock file while this handle is the writer
        if self.root is not None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StoreUnwritable(f"cannot create store at {self.root}: {exc}") from exc
            self._load()

    @classmethod
    def open(cls, root: str | Path) -> "RecordStore":
        return cls(root)

    def _camera_path(self, camera_id: int) -> Path:
        assert self.root is not None
        return self.root / f"camera_{camera_id:05d}.jsonl"

    def _load(self) -> None:
        assert self.root is not None
        for path in sorted(self.root.glob("camera_*.jsonl")):
            try:
                camera_id = int(path.stem.split("_", 1)[1])
            except ValueError:
                camera_id = 0
            if camera_id <= 0 or path.name != self._camera_path(camera_id).name:
                logger.warning("ignoring %s: not a camera file name", path)
                continue
            self._load_camera(camera_id)

    def _load_camera(self, camera_id: int) -> _CameraFile:
        """Read one camera's file into a fresh log: snapshot rows, then the lines past it."""
        f = _CameraFile(self._camera_path(camera_id))
        log = _CameraLog()
        self._files[camera_id] = f
        self._logs[camera_id] = log
        try:
            fh = f.path.open("rb")
        except FileNotFoundError:
            return f
        with fh:
            snap = _read_snapshot(f.snap)
            if snap is not None and snap.covered <= os.fstat(fh.fileno()).st_size:
                _hash_next(fh, snap.covered, f.sha)
                if f.sha.digest() == snap.digest:
                    log.load_snapshot(snap)
                    f.covered = snap.covered
                else:
                    f.sha = hashlib.sha256()
                    fh.seek(0)
            from_snapshot = f.covered
            lineno = 0  # past the snapshot; error messages add the lines before it
            append_fields = log.append_fields
            for raw in fh:
                lineno += 1
                if not raw.endswith(b"\n"):  # only the last line can lack one
                    f.torn = raw
                    break
                f.sha.update(raw)
                f.covered += len(raw)
                try:
                    fields = _parse_stored(raw)
                except _LINE_ERRORS as exc:
                    lineno += _lines_before(f.path, from_snapshot)
                    raise MalformedLine(f"{f.path}:{lineno}: {exc}") from exc
                if fields is not None:
                    append_fields(fields)
        if f.torn:
            try:
                fields = _parse_stored(f.torn)
            except _LINE_ERRORS as exc:
                lineno += _lines_before(f.path, from_snapshot)
                logger.warning("%s:%d: ignoring a torn last line: %s", f.path, lineno, exc)
            else:
                if fields is not None:
                    log.append_fields(fields)
                    f.torn_row = True
        if f.covered > from_snapshot:
            self._save_snapshot(f, log, len(log) - f.torn_row)
        return f

    def _save_snapshot(self, f: _CameraFile, log: _CameraLog, rows: int) -> None:
        """Best effort: snapshot the log's first rows, which the file's first f.covered bytes hold."""
        extras = [[row, feature, batch_id] for row, (feature, batch_id) in sorted(log.extras.items()) if row < rows]
        arrays = {name: np.frombuffer(getattr(log, name), dtype=_DTYPES[code])[:rows] for name, code in _COLUMNS}
        tmp = None
        try:
            with tempfile.NamedTemporaryFile(dir=f.path.parent, prefix=f".{f.snap.name}.", delete=False) as tmp:
                os.fchmod(tmp.fileno(), f.path.stat().st_mode & 0o777)  # readable by whoever reads the file
                np.savez(tmp, covered=np.int64(f.covered),
                         sha256=np.frombuffer(f.sha.digest(), dtype=np.uint8),
                         extras=np.frombuffer(json.dumps(extras).encode(), dtype=np.uint8), **arrays)
            os.replace(tmp.name, f.snap)
        except OSError as exc:
            # log the text only: a kept traceback would pin the views above and block appends
            logger.warning("could not write snapshot %s: %s", f.snap, str(exc))
            if tmp is not None:
                try:
                    os.unlink(tmp.name)
                except OSError:
                    pass

    def _acquire_lock(self) -> None:
        if self._lock is not None:
            return
        try:
            lock = open(self.root / ".lock", "ab")
        except OSError as exc:
            raise StoreUnwritable(f"cannot create the writer lock of {self.root}: {exc}") from exc
        try:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            lock.close()
            raise StoreLocked(f"store {self.root} is being written by another handle") from None
        except OSError as exc:
            lock.close()
            raise StoreUnwritable(f"cannot lock store {self.root}: {exc}") from exc
        self._lock = lock

    def _writer(self, camera_id: int) -> _CameraFile:
        """The camera's file, open for append under the writer lock."""
        f = self._files.get(camera_id)
        if f is not None and f.fh is not None:
            return f
        self._acquire_lock()
        try:
            size = self._camera_path(camera_id).stat().st_size
        except FileNotFoundError:
            size = 0
        if f is None or f.written or size != f.covered + len(f.torn):
            # new to this handle, or changed since this handle read it
            f = self._load_camera(camera_id)
        try:
            f.fh = f.path.open("a", encoding="utf-8")
            if f.torn:
                self._mend_torn(f)
        except OSError as exc:
            raise StoreUnwritable(f"cannot append to store at {self.root}: {exc}") from exc
        return f

    def _mend_torn(self, f: _CameraFile) -> None:
        """End the file's unterminated last line, or cut it off if it holds no record."""
        if f.torn_row:
            f.fh.write("\n")
            f.sha.update(f.torn + b"\n")
            f.covered += len(f.torn) + 1
            logger.warning("%s: ended an unterminated last line", f.path)
        else:
            f.fh.truncate(f.covered)
            logger.warning("%s: cut off a torn last line that holds no record", f.path)
        f.torn = b""
        f.torn_row = False

    def append(self, rec: DetectionRecord, raw_line: str | None = None) -> None:
        """Append one validated record; the raw line is persisted verbatim."""
        self._append_fields(
            (rec.time_us, rec.camera_id, rec.class_id, rec.bbox.x, rec.bbox.y,
             rec.bbox.w, rec.bbox.h, rec.local_id, rec.global_id, rec.feature, rec.batch_id),
            raw_line if raw_line is not None else format_record(rec),
        )

    def _append_fields(self, fields: tuple, line: str) -> None:
        camera_id = fields[1]
        if self.root is not None:
            f = self._writer(camera_id)
            try:
                f.fh.write(line + "\n")
            except OSError as exc:
                raise StoreUnwritable(f"write failed for camera {camera_id}: {exc}") from exc
            f.written += len(line) + 1 if line.isascii() else len((line + "\n").encode("utf-8"))
        log = self._logs.get(camera_id)
        if log is None:
            log = self._logs.setdefault(camera_id, _CameraLog())
        log.append_fields(fields)

    def flush(self) -> None:
        for f in self._files.values():
            if f.fh is not None:
                f.fh.flush()

    def close(self) -> None:
        """Close the append files, refresh their snapshots, and release the writer lock."""
        try:
            for camera_id, f in self._files.items():
                if f.fh is not None:
                    f.fh.close()
                    f.fh = None
                    self._refresh_snapshot(f, self._logs[camera_id])
        finally:
            if self._lock is not None:
                self._lock.close()
                self._lock = None

    def _refresh_snapshot(self, f: _CameraFile, log: _CameraLog) -> None:
        """Stamp a new snapshot with the bytes parsed plus the bytes written, if the file has exactly those."""
        covered = f.covered + f.written
        sha = f.sha.copy()
        try:
            with f.path.open("rb") as fh:
                if os.fstat(fh.fileno()).st_size != covered:
                    logger.warning("%s: changed by another writer; its snapshot is left stale", f.path)
                    return
                fh.seek(f.covered)
                _hash_next(fh, f.written, sha)
        except OSError as exc:
            logger.warning("could not read %s back for its snapshot: %s", f.path, exc)
            return
        f.covered, f.sha, f.written = covered, sha, 0
        self._save_snapshot(f, log, len(log))

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(len(log) for log in self._logs.values())

    def camera_ids(self) -> list[int]:
        return sorted(self._logs)

    def index(self, camera_id: int) -> _CameraIndex:
        log = self._logs.get(camera_id)
        return log.index() if log is not None else _empty_index()

    def time_bounds(self, camera_id: int | None = None) -> tuple[int, int] | None:
        """(min, max) record time in microseconds, or None for no records."""
        cameras = [camera_id] if camera_id is not None else self.camera_ids()
        lo: int | None = None
        hi: int | None = None
        for cid in cameras:
            idx = self.index(cid)
            if len(idx) == 0:
                continue
            first, last = int(idx.times[0]), int(idx.times[-1])
            lo = first if lo is None else min(lo, first)
            hi = last if hi is None else max(hi, last)
        if lo is None or hi is None:
            return None
        return lo, hi

    def materialize(self, camera_id: int, position: int) -> DetectionRecord:
        """Build a DetectionRecord from a sorted-index position."""
        idx = self.index(camera_id)
        row = int(idx.rows[position])
        extras = self._logs[camera_id].extras.get(row, (None, None))
        return DetectionRecord(
            record_time=from_us(int(idx.times[position])),
            camera_id=camera_id,
            class_id=int(idx.class_ids[position]),
            bbox=BoundingBox(float(idx.x[position]), float(idx.y[position]), float(idx.w[position]), float(idx.h[position])),
            local_id=int(idx.local_ids[position]),
            global_id=int(idx.global_ids[position]),
            feature=extras[0],
            batch_id=extras[1],
        )


def ingest_stream(source: Iterable[str], store: RecordStore) -> IngestReport:
    """Append every valid line from source; log and skip invalid ones.

    Rejected lines never abort the stream. The report's first/last times are
    the min/max record times among accepted lines.
    """
    report = IngestReport()
    first_us: int | None = None
    last_us: int | None = None
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            fields = _parse_fields(line)
        except _LINE_ERRORS as exc:
            report.rejected += 1
            logger.warning("rejected line %d: %s", lineno, exc)
            continue
        store._append_fields(fields, line)
        report.accepted += 1
        t = fields[0]
        if first_us is None:
            first_us = last_us = t
        else:
            if t < first_us:
                first_us = t
            if t > last_us:
                last_us = t
    store.flush()
    if first_us is not None and last_us is not None:
        report.first_time = from_us(first_us)
        report.last_time = from_us(last_us)
    return report


def _camera_selection(store: RecordStore, cameras: Iterable[int] | None) -> list[int]:
    if cameras is None:
        return store.camera_ids()
    return sorted(set(cameras))


def query_window(
    store: RecordStore,
    cameras: Iterable[int] | None,
    t0: datetime,
    t1: datetime,
) -> list[DetectionRecord]:
    """Records with t0 <= record_time < t1 on the given cameras (None = all), time-ordered."""
    t0_us, t1_us = to_us(t0), to_us(t1)
    if t0_us > t1_us:
        raise InvertedRange(f"t0 {t0} is after t1 {t1}")
    hits: list[tuple[int, int, int]] = []
    for cid in _camera_selection(store, cameras):
        idx = store.index(cid)
        lo, hi = idx.slice(t0_us, t1_us)
        times = idx.times
        hits.extend((int(times[pos]), cid, pos) for pos in range(lo, hi))
    hits.sort()
    return [store.materialize(cid, pos) for _, cid, pos in hits]


def distinct_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (major, minor) pairs and mark the first of each run of equal pairs.

    Returns (order, first): order sorts by major then minor, and first is a
    mask over the sorted pairs, so major[order][first] and minor[order][first]
    are the distinct pairs in ascending order.
    """
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    first = np.empty(len(major), dtype=bool)
    first[:1] = True
    np.not_equal(major[1:], major[:-1], out=first[1:])
    first[1:] |= minor[1:] != minor[:-1]
    return order, first


def window_count_series(
    store: RecordStore,
    camera_id: int,
    t0_us: int,
    t1_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-5-second-window distinct person counts as (window_starts_us, counts).

    Both endpoints are aligned down to the epoch 5-second grid; windows with
    no records appear with count 0. Only human-class records contribute and
    duplicate global ids within a window collapse.
    """
    if t0_us > t1_us:
        raise InvertedRange(f"t0 {from_us(t0_us)} is after t1 {from_us(t1_us)}")
    t0_us = timeutil.window_start(t0_us)
    t1_us = timeutil.window_start(t1_us)
    n = (t1_us - t0_us) // WINDOW_US
    starts = t0_us + WINDOW_US * np.arange(n, dtype=np.int64)
    times, gid = iter_class0(store, camera_id, t0_us, t1_us)
    win = (times - t0_us) // WINDOW_US
    order, first = distinct_pairs(win, gid)
    counts = np.bincount(win[order][first], minlength=n).astype(np.int64)
    return starts, counts


def interval_counts(
    store: RecordStore,
    camera_id: int,
    t0: datetime,
    t1: datetime,
) -> list[IntervalCount]:
    """One IntervalCount per 5-second window in [t0, t1), zero windows included."""
    starts, counts = window_count_series(store, camera_id, to_us(t0), to_us(t1))
    return [
        IntervalCount(camera_id, from_us(int(s)), int(c))
        for s, c in zip(starts.tolist(), counts.tolist())
    ]


def iter_class0(
    store: RecordStore,
    camera_id: int,
    t0_us: int,
    t1_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(times_us, global_ids) of human-class records in [t0, t1) for one camera."""
    idx = store.index(camera_id)
    lo, hi = idx.slice(t0_us, t1_us)
    mask = idx.class_ids[lo:hi] == HUMAN_CLASS
    return idx.times[lo:hi][mask], idx.global_ids[lo:hi][mask]
