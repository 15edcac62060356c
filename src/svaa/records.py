"""Detection-record schema, the append-only store, and windowed distinct counts.

Records arrive as newline-delimited JSON objects, one detection per line.
They are persisted verbatim into one append-only file per camera,
`camera_NNNNN.jsonl`; queries run against per-camera in-memory indexes
(time-sorted numpy columns) that are rebuilt lazily at the first read after
an append. That rebuild point is the ingest boundary of the concurrency
contract: a single writer appends, readers see immutable indexes. Ingest
validates a line's optional `feature` and `batch_id` too, but no analytic
reads them: they live only in the JSONL line, never in the columns.

Lines are parsed in batches of at most _BATCH_LINES, which bounds the
parser's memory. `_decode` reads the lines of the canonical shape, the one
the generator writes, in columns: one compiled pattern per line, then numpy
for the numbers and for the calendar and clock checks of the times. Every
line it does not take (another key order, an offset, an exponent, an extra
field, or anything wrong) goes through `_parse_fields`, the per-line
parser, which alone rejects lines: every rejection, message and line number
comes from it. Ingest then groups a batch's accepted rows by camera,
keeping their order, and makes one write of the camera's lines and one
extend of each of its columns. Opening a store reads a file's lines past
its snapshot through the same batches.

The JSONL files are the source of truth. Beside each one sits a columnar
snapshot, `camera_NNNNN.snap.npz`, so that opening a store does not re-parse
what was validated at ingest (a snapshot plus a log tail, as in an LSM
tree). It holds the eight record columns of `_COLUMNS`, which also name a
camera log's buffers and its index's attributes, in append order, and a
stamp: the length N of the newline-terminated file prefix whose rows it
holds, and the SHA-256 of those N bytes. Other members, such as the
`extras` that older snapshots carry, are not read. On open a snapshot is
used only if N fits in the file and the digest of the file's first N bytes
matches; otherwise the whole file is parsed. Either way only the bytes past
the snapshot are parsed, with line numbers counted from the start of the
file. Opening rewrites a missing or stale snapshot and close() refreshes
the snapshot of every camera the handle appended to; both are best effort,
a failure is logged and changes no answer. The zip container's CRC-32
guards the snapshot's own bytes.

One writer at a time: a handle takes an advisory `flock` on `<store>/.lock`
at its first append and holds it until close(); a second writer gets
StoreLocked. On taking the lock it removes the `.camera_NNNNN.snap.npz.*`
temporaries that a process killed while writing a snapshot leaves behind
(a reader that is rewriting a snapshot at that moment loses that write,
which is logged). The lock is what lets close() stamp a snapshot with the
bytes the handle parsed plus the bytes it wrote: if the file's length
differs, no snapshot is written. A crash during an append can leave an
unterminated last line. Opening keeps it if it parses and skips it with a
warning if not; before its first append, a writer ends such a line with a
newline or, if it does not parse, cuts it off. A malformed line anywhere
else raises MalformedLine with its line number.

Durability: nothing calls fsync. Lines that ingest reports as accepted are
in the operating system's page cache when close() returns, so they survive
a crash of the process but can be lost on a power failure or an operating
system crash, after which what each file holds is up to the file system.

The index layout stays inside this module: `human_rows` is the only reader
of `_CameraIndex` for the analytics, which ask it for the columns they need
of a camera's human-class rows in a time range.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import tempfile
import zipfile
from array import array
from dataclasses import dataclass
from itertools import islice
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
    RangeTooLong,
    StoreLocked,
    StoreUnwritable,
)
from .timeutil import WINDOW_US

logger = logging.getLogger(__name__)

HUMAN_CLASS = 0
MAX_SERIES_WINDOWS = 366 * timeutil.US_PER_DAY // WINDOW_US  # a leap year of windows: the longest window_count_series


@dataclass(slots=True)
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    first_us: int | None = None  # the least record time of the accepted lines
    last_us: int | None = None  # and the greatest


_NUMBER = (int, float)
_INT64_MAX = 2**63 - 1  # ids and classes are stored as int64 columns


def _parse_fields(line: str) -> tuple:
    """Validate one record line into a flat field tuple (the hot ingest path).

    Returns (time_us, camera_id, class_id, x, y, w, h, local_id, global_id,
    feature, batch_id).
    """
    try:
        obj = json.loads(line)
    # ValueError covers JSONDecodeError and integers past the int-to-str digit limit
    except (ValueError, TypeError, RecursionError) as exc:
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


# The canonical line shape, the one synth.generate_lines writes: these six keys in this order and no other,
# a UTC time with whole seconds or six fraction digits, ids of at most 18 digits (so below 2**63; camera,
# local and global ids at least 1) and a box of plain nonnegative decimals, all in JSON's number grammar.
# _decode reads such lines in columns; every other line goes to _parse_fields.
_ID = r"([1-9]\d{0,17})"
_PIXEL = r"(?:0|[1-9]\d{0,15})(?:\.\d+)?"
_CANONICAL = re.compile(
    r'\{"record_time":"(\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d{6})?Z)","camera_id":' + _ID
    + r',"class_id":(0|[1-9]\d{0,17}),"bbox":\[(' + ",".join([_PIXEL] * 4) + r')\],"local_id":' + _ID
    + r',"global_id":' + _ID + r"\}",
    re.ASCII,
)
_BATCH_LINES = 1024  # lines decoded at a time, which bounds the decoder's memory
# a batch's columns, in _parse_fields' order, with their array typecodes
_FIELDS = (("times", "q"), ("camera_ids", "q"), ("class_ids", "q"), ("x", "d"), ("y", "d"), ("w", "d"),
           ("h", "d"), ("local_ids", "q"), ("global_ids", "q"))
# a stored row's columns: those of a camera's log, its index and its snapshot
_COLUMNS = tuple(field for field in _FIELDS if field[0] != "camera_ids")
_DTYPES = {"q": np.dtype(np.int64), "d": np.dtype(np.float64)}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # by month, in a common year


def _digits(d: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The decimal number in character columns lo..hi-1 of a digit matrix."""
    return d[:, lo:hi] @ 10 ** np.arange(hi - lo - 1, -1, -1)


def _instants(texts: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of canonical time texts, and whether each names a calendar instant."""
    d = np.array(texts).view(np.uint32).reshape(len(texts), -1).astype(np.int64) - ord("0")
    year, month, day = _digits(d, 0, 4), _digits(d, 5, 7), _digits(d, 8, 10)
    hour, minute, second = _digits(d, 11, 13), _digits(d, 14, 16), _digits(d, 17, 19)
    micro = np.where(d[:, 19] == ord(".") - ord("0"), _digits(d, 20, 26), 0) if d.shape[1] > 20 else 0
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last_day = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    valid = (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= last_day)
    valid &= (hour < 24) & (minute < 60) & (second < 60)
    # days since 1970-01-01 in the proleptic Gregorian calendar, counted from March so leap days come last
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + (153 * ((month + 9) % 12) + 2) // 5 + day - 719_469
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000 + micro, valid


def _decode(lines: list[str], columns: dict[str, np.ndarray]) -> np.ndarray:
    """Read the canonical lines among stripped lines into columns, one entry per line; raises nothing.

    Returns a mask of the lines read. A line that is not canonical, whose time
    is not a calendar instant, or whose box has no area is left unmarked, for
    _parse_fields to accept or reject.
    """
    ok = np.zeros(len(lines), dtype=bool)
    hits = [(i, m.groups()) for i, m in enumerate(map(_CANONICAL.fullmatch, lines)) if m]
    if not hits:
        return ok
    at, groups = zip(*hits)
    at = np.array(at)
    times, cameras, classes, boxes, local_ids, global_ids = zip(*groups)
    for name, texts in (("camera_ids", cameras), ("class_ids", classes), ("local_ids", local_ids),
                        ("global_ids", global_ids)):
        columns[name][at] = np.fromstring(" ".join(texts), dtype=np.int64, sep=" ")
    box = np.fromstring(",".join(boxes), dtype=np.float64, sep=",").reshape(-1, 4)
    for k, name in enumerate("xywh"):
        columns[name][at] = box[:, k]
    columns["times"][at], valid = _instants(times)
    ok[at] = valid & (box[:, 2] > 0) & (box[:, 3] > 0)
    return ok


def _parse_batch(lines: list[str]) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, Exception]]]:
    """Parse a batch of stripped lines: (kept, columns, rejects).

    _decode reads the canonical lines; every other line that is not blank
    goes through _parse_fields. kept holds the positions of the accepted
    lines, columns their rows in line order, and rejects (position, error)
    for each refused line, in order.
    """
    n = len(lines)
    columns = {name: np.zeros(n, dtype=_DTYPES[code]) for name, code in _FIELDS}
    ok = _decode(lines, columns)
    rejects = []
    for i in np.flatnonzero(~ok).tolist():
        try:
            fields = _parse_fields(lines[i]) if lines[i] else None
        except _LINE_ERRORS as exc:
            # keep a copy without the traceback, whose frames would hold the batch in a reference cycle
            rejects.append((i, type(exc)(str(exc))))
            continue
        if fields is not None:
            ok[i] = True
            for (name, _), value in zip(_FIELDS, fields):
                columns[name][i] = value
    kept = np.flatnonzero(ok)
    if len(kept) < n:
        columns = {name: column[kept] for name, column in columns.items()}
    return kept, columns, rejects


class _CameraIndex:
    """Immutable time-sorted copy of one camera's columns, an attribute each, named as in _COLUMNS."""

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, columns: dict[str, np.ndarray]):
        order = np.argsort(columns["times"], kind="stable")
        for name in self.__slots__:
            setattr(self, name, columns[name][order])

    def __len__(self) -> int:
        return len(self.times)

    def slice(self, t0_us: int, t1_us: int) -> tuple[int, int]:
        """Positions covering t0 <= time < t1."""
        lo = int(np.searchsorted(self.times, t0_us, side="left"))
        hi = int(np.searchsorted(self.times, t1_us, side="left"))
        return lo, hi


_EMPTY_INDEX = _CameraIndex({name: np.empty(0, dtype=_DTYPES[code]) for name, code in _COLUMNS})
_CHUNK = 1 << 20  # bytes read at a time when hashing part of a file
_LINE_ERRORS = (MalformedLine, InvalidTimestamp, InvalidBBox)


class _CameraLog:
    """Append buffers for one camera, one per column of _COLUMNS, plus its lazily built index."""

    __slots__ = ("columns", "_index")

    def __init__(self):
        self.columns = {name: array(code) for name, code in _COLUMNS}
        self._index: _CameraIndex | None = None

    def __len__(self) -> int:
        return len(self.columns["times"])

    def extend(self, columns: dict[str, np.ndarray], lo: int = 0, hi: int | None = None) -> None:
        """Append rows lo..hi-1 of columns named as the log's."""
        for name, buffer in self.columns.items():
            buffer.frombytes(columns[name][lo:hi].view(np.uint8))
        self._index = None

    def arrays(self, rows: int | None = None) -> dict[str, np.ndarray]:
        """Numpy views of the first rows of every column, all of them by default; an append fails while one lives."""
        return {name: np.frombuffer(buffer, dtype=_DTYPES[buffer.typecode])[:rows]
                for name, buffer in self.columns.items()}

    def index(self) -> _CameraIndex:
        if self._index is None:
            self._index = _CameraIndex(self.arrays())
        return self._index


@dataclass(slots=True)
class _Snapshot:
    covered: int  # length of the file prefix whose rows the columns hold
    digest: bytes  # SHA-256 of that prefix
    columns: dict[str, np.ndarray]


def _read_snapshot(path: Path) -> _Snapshot | None:
    """The snapshot at path, or None if it is missing or not well formed."""
    try:
        with np.load(path, allow_pickle=False) as z:
            snap = _Snapshot(int(z["covered"]), z["sha256"].tobytes(), {name: z[name] for name, _ in _COLUMNS})
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


def _parse_lines(raws: list) -> tuple[list[str], np.ndarray, dict[str, np.ndarray], list[tuple[int, Exception]]]:
    """_parse_batch over lines given as str or as UTF-8 bytes: (stripped lines, kept, columns, rejects).

    A bytes line that is not UTF-8 reads as a blank line and is refused with
    MalformedLine, in line order among the other rejects.
    """
    lines, bad = [], []
    for i, raw in enumerate(raws):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raw = ""
                bad.append((i, MalformedLine(f"not UTF-8: {exc}")))
        lines.append(raw.strip())
    kept, columns, rejects = _parse_batch(lines)
    return lines, kept, columns, sorted(rejects + bad, key=lambda reject: reject[0])


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
                    log.extend(snap.columns)
                    f.covered = snap.covered
                else:
                    f.sha = hashlib.sha256()
                    fh.seek(0)
            from_snapshot = f.covered
            past = 0  # lines read past the snapshot; error messages add the lines before it
            while raws := list(islice(fh, _BATCH_LINES)):
                if not raws[-1].endswith(b"\n"):  # only the last line can lack one
                    f.torn = raws.pop()  # read no further: a writer may be ending this line
                data = b"".join(raws)
                f.sha.update(data)
                f.covered += len(data)
                _, _, columns, rejects = _parse_lines(raws)
                if rejects:
                    i, exc = rejects[0]
                    lineno = _lines_before(f.path, from_snapshot) + past + i + 1
                    raise MalformedLine(f"{f.path}:{lineno}: {exc}") from exc
                log.extend(columns)
                past += len(raws)
                if f.torn:
                    break
        if f.torn:
            _, kept, columns, rejects = _parse_lines([f.torn])
            if rejects:
                lineno = _lines_before(f.path, from_snapshot) + past + 1
                logger.warning("%s:%d: ignoring a torn last line: %s", f.path, lineno, rejects[0][1])
            elif len(kept):
                log.extend(columns)
                f.torn_row = True
        if f.covered > from_snapshot:
            self._save_snapshot(f, log, len(log) - f.torn_row)
        return f

    def _save_snapshot(self, f: _CameraFile, log: _CameraLog, rows: int) -> None:
        """Best effort: snapshot the log's first rows, which the file's first f.covered bytes hold."""
        arrays = log.arrays(rows)
        tmp = None
        try:
            with tempfile.NamedTemporaryFile(dir=f.path.parent, prefix=f".{f.snap.name}.", delete=False) as tmp:
                os.fchmod(tmp.fileno(), f.path.stat().st_mode & 0o777)  # readable by whoever reads the file
                np.savez(tmp, covered=np.int64(f.covered),
                         sha256=np.frombuffer(f.sha.digest(), dtype=np.uint8), **arrays)
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
        for tmp in self.root.glob(".camera_*.snap.npz.*"):  # left behind by a process killed mid-snapshot
            try:
                tmp.unlink()
            except OSError as exc:
                logger.warning("could not remove a stale snapshot temporary %s: %s", tmp, exc)
            else:
                logger.warning("removed a stale snapshot temporary %s", tmp)

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

    def _append_batch(self, lines: list[str], kept: np.ndarray, columns: dict[str, np.ndarray]) -> None:
        """Append the rows of lines[kept]: per camera, one write of its lines and one extend of its columns."""
        order = np.argsort(columns["camera_ids"], kind="stable")
        cameras = columns["camera_ids"][order]
        columns = {name: columns[name][order] for name, _ in _COLUMNS}
        rows = kept[order].tolist()
        cuts = (np.flatnonzero(cameras[1:] != cameras[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            camera_id = int(cameras[lo])
            if self.root is not None:
                f = self._writer(camera_id)
                text = "\n".join([lines[i] for i in rows[lo:hi]]) + "\n"
                try:
                    f.fh.write(text)
                except OSError as exc:
                    raise StoreUnwritable(f"write failed for camera {camera_id}: {exc}") from exc
                f.written += len(text) if text.isascii() else len(text.encode("utf-8"))
            log = self._logs.get(camera_id)  # after _writer, which may have re-read the camera
            if log is None:
                log = self._logs[camera_id] = _CameraLog()
            log.extend(columns, lo, hi)

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
        return log.index() if log is not None else _EMPTY_INDEX

    def time_bounds(self, camera_id: int | None = None) -> tuple[int, int] | None:
        """(min, max) record time in microseconds, or None for no records."""
        cameras = [camera_id] if camera_id is not None else self.camera_ids()
        times = [idx.times for idx in map(self.index, cameras) if len(idx)]
        if not times:
            return None
        return min(int(t[0]) for t in times), max(int(t[-1]) for t in times)


def ingest_stream(source: Iterable[str | bytes], store: RecordStore) -> IngestReport:
    """Append every valid line from source; log and skip invalid ones.

    Lines are str, or bytes read as UTF-8, so a line that is not UTF-8 is
    rejected like any other bad line. Rejected lines never abort the stream.
    The report's first_us/last_us are the min/max record times among
    accepted lines. Lines are parsed and appended _BATCH_LINES at a time.
    """
    report = IngestReport()
    source = iter(source)
    start = 1  # the number of the batch's first line
    while raws := list(islice(source, _BATCH_LINES)):
        batch, kept, columns, rejects = _parse_lines(raws)
        for i, exc in rejects:
            logger.warning("rejected line %d: %s", start + i, exc)
        report.rejected += len(rejects)
        if len(kept):
            store._append_batch(batch, kept, columns)
            report.accepted += len(kept)
            lo, hi = int(columns["times"].min()), int(columns["times"].max())
            report.first_us = lo if report.first_us is None else min(report.first_us, lo)
            report.last_us = hi if report.last_us is None else max(report.last_us, hi)
        start += len(raws)
    store.flush()
    return report


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


def human_rows(
    store: RecordStore,
    cameras: Iterable[int],
    t0_us: int,
    t1_us: int,
    columns: tuple[str, ...] = ("times", "global_ids"),
) -> tuple[np.ndarray, ...]:
    """The named index columns of the cameras' human-class rows in [t0, t1), camera after camera.

    Column names are those of the sorted index: times, global_ids,
    local_ids, x, y, w and h. Within a camera the rows are time-ordered.
    """
    parts = [[getattr(_EMPTY_INDEX, name) for name in columns]]  # keeps the dtypes when no camera is asked for
    for cid in cameras:
        idx = store.index(cid)
        lo, hi = idx.slice(t0_us, t1_us)
        mask = idx.class_ids[lo:hi] == HUMAN_CLASS
        parts.append([getattr(idx, name)[lo:hi][mask] for name in columns])
    return tuple(np.concatenate(column) for column in zip(*parts))


def distinct_counts(times: np.ndarray, gids: np.ndarray, t0_us: int, width_us: int, n: int) -> np.ndarray:
    """Distinct global ids in each of n buckets of width_us from t0_us, for rows that fall in them."""
    bucket = (times - t0_us) // width_us
    order, first = distinct_pairs(bucket, gids)
    return np.bincount(bucket[order][first], minlength=n).astype(np.int64)


def window_count_series(
    store: RecordStore,
    camera_id: int,
    t0_us: int,
    t1_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-5-second-window distinct person counts as (window_starts_us, counts).

    Both endpoints are aligned down to the epoch 5-second grid; windows with
    no records appear with count 0. Only human-class records contribute and
    duplicate global ids within a window collapse. A range of more than
    MAX_SERIES_WINDOWS windows is refused with RangeTooLong before anything
    is allocated.
    """
    if t0_us > t1_us:
        raise InvertedRange(f"t0 {timeutil.format_rfc3339(t0_us)} is after t1 {timeutil.format_rfc3339(t1_us)}")
    t0_us = timeutil.window_start(t0_us)
    t1_us = timeutil.window_start(t1_us)
    n = (t1_us - t0_us) // WINDOW_US
    if n > MAX_SERIES_WINDOWS:
        raise RangeTooLong(f"{n} windows from {timeutil.format_rfc3339(t0_us)}; one query takes at most"
                           f" {MAX_SERIES_WINDOWS} (366 days)")
    starts = t0_us + WINDOW_US * np.arange(n, dtype=np.int64)
    times, gids = human_rows(store, [camera_id], t0_us, t1_us)
    return starts, distinct_counts(times, gids, t0_us, WINDOW_US, n)

