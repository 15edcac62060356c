"""The batch ingest against the per-line parser it must agree with, line for line and bit for bit.

`ingest_per_line` is ingest as it was before the columnar decoder: every
stripped line through `_parse_fields`, one row appended at a time. The
property feeds both the same mixed batches (canonical lines, valid lines of
other shapes, and every kind of rejected line) and compares the reports, the
warnings in order, the JSONL bytes and the columns of every camera.
"""

from __future__ import annotations

import json
import logging
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa import records, synth
from svaa.errors import InvalidBBox, InvalidTimestamp, MalformedLine
from svaa.records import RecordStore, ingest_stream
from svaa.timeutil import format_rfc3339, from_us, parse_rfc3339

from conftest import make_line

FIRST_US = parse_rfc3339("0001-01-01T00:00:00Z")
LAST_US = parse_rfc3339("9999-12-31T23:59:59.999999Z")
NEAR_US = parse_rfc3339("2023-10-16T00:00:00Z")


def ingest_per_line(source) -> tuple[tuple, list[str], dict[int, str], dict[int, dict[str, bytes]]]:
    """(report fields, warnings, JSONL text and column bytes per camera) of a per-line ingest."""
    accepted = rejected = 0
    first = last = None
    warnings: list[str] = []
    files: dict[int, str] = {}
    columns: dict[int, dict[str, array]] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            fields = records._parse_fields(line)
        except (MalformedLine, InvalidTimestamp, InvalidBBox) as exc:
            rejected += 1
            warnings.append(f"rejected line {lineno}: {exc}")
            continue
        t, camera, class_id, x, y, w, h, local_id, global_id, _, _ = fields
        files[camera] = files.get(camera, "") + line + "\n"
        cols = columns.setdefault(camera, {name: array(code) for name, code in records._COLUMNS})
        row = dict(times=t, class_ids=class_id, global_ids=global_id, local_ids=local_id, x=x, y=y, w=w, h=h)
        for name, column in cols.items():
            column.append(row[name])
        accepted += 1
        first = t if first is None else min(first, t)
        last = t if last is None else max(last, t)
    report = (accepted, rejected, first, last)
    return report, warnings, files, {c: {name: a.tobytes() for name, a in cols.items()} for c, cols in columns.items()}


def _columns(store: RecordStore) -> dict[int, dict[str, bytes]]:
    """Every camera's columns in append order, as bytes."""
    return {c: {name: column.tobytes() for name, column in log.columns.items()} for c, log in store._logs.items() if len(log)}


def _pixel(draw, low: int = 0) -> str:
    value = draw(st.one_of(st.integers(low, 5000), st.floats(low or 1e-6, 5000, allow_subnormal=False),
                           st.tuples(st.integers(low, 10**16 - 1), st.integers(0, 10**25))
                           .map("{0[0]}.{0[1]}".format)))  # up to 42 digits, rounded by the parser
    return str(value)


@st.composite
def records_(draw) -> dict:
    """A record of canonical shape: ids past 18 digits and boxes without area are drawn by other kinds."""
    us = draw(st.one_of(st.integers(NEAR_US, NEAR_US + 10**12), st.integers(FIRST_US, LAST_US)))
    if draw(st.booleans()):
        us -= us % 1_000_000  # whole seconds: no fraction
    ids = st.one_of(st.integers(1, 3), st.integers(1, 10**18 - 1))
    return {
        "record_time": format_rfc3339(us),
        "camera_id": draw(st.sampled_from([1, 2, 3, 10**18 - 1])),  # few cameras: few files to write
        "class_id": draw(st.one_of(st.integers(0, 2), st.integers(0, 10**18 - 1))),
        "bbox": [_pixel(draw), _pixel(draw), _pixel(draw, 1), _pixel(draw, 1)],
        "local_id": draw(ids),
        "global_id": draw(ids),
    }


def canonical(rec: dict) -> str:
    """The line in the shape schema.format_record writes, with the box numbers as given."""
    return (f'{{"record_time":"{rec["record_time"]}","camera_id":{rec["camera_id"]},"class_id":{rec["class_id"]},'
            f'"bbox":[{",".join(rec["bbox"])}],"local_id":{rec["local_id"]},"global_id":{rec["global_id"]}}}')


def _with(rec: dict, **changes) -> str:
    return canonical({**rec, **changes})


# valid lines of other shapes, each from a canonical record
VALID = [
    lambda rec, draw: json.dumps(json.loads(canonical(rec))),  # spaces after , and :
    lambda rec, draw: json.dumps(dict(draw(st.permutations(list(json.loads(canonical(rec)).items())))),
                                 separators=(",", ":")),  # keys in any order
    lambda rec, draw: canonical(rec)[:-1] + ',"camera_id":' + str(draw(st.integers(1, 3))) + "}",
    lambda rec, draw: canonical(rec)[:-1] + ',"feature":"AAAA//BBBB==","batch_id":' + str(draw(st.integers())) + "}",
    lambda rec, draw: _with(rec, record_time=rec["record_time"][:19] + draw(st.sampled_from(["+01:00", "-05:30"]))),
    lambda rec, draw: _with(rec, record_time=rec["record_time"][:19] + "."
                            + draw(st.text("0123456789", min_size=1, max_size=9)) + "Z"),
    lambda rec, draw: _with(rec, record_time=rec["record_time"].replace("T", "t").replace("Z", "z")),
    lambda rec, draw: _with(rec, record_time=rec["record_time"].replace("T", " ")[:-1]),
    lambda rec, draw: _with(rec, bbox=[rec["bbox"][0], draw(st.sampled_from(["1.5e2", "1E3", "2e-1"])), *rec["bbox"][2:]]),
    lambda rec, draw: draw(st.sampled_from([" ", "\t", "  \r"])) + canonical(rec) + draw(st.sampled_from(["", " \r"])),
]

# times that ingest refuses (most of canonical shape but naming no instant), and times at the calendar's edges
BAD_TIMES = ["2023-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2023-04-31T00:00:00Z", "2023-10-16T24:00:00Z",
             "2023-10-16T23:60:00Z", "2023-10-16T23:59:60Z", "0000-01-01T00:00:00Z", "2023-13-01T00:00:00Z",
             "2023-00-10T00:00:00Z", "2023-10-00T00:00:00Z", "2023-10-16T09:00:00.000000Z9", "2023-10-16",
             "not-a-date"]
LEAP_TIMES = ["2024-02-29T12:00:00Z", "2000-02-29T00:00:00.000001Z", "9999-12-31T23:59:59.999999Z",
              "0001-01-01T00:00:00Z"]
# ids at and past the edges of the canonical shape, valid or not (a class id may be 0, no other id)
BAD_IDS = ["0", "-1", "01", "00", '"1"', "1.0", "1e2", "true", "null", str(10**18), str(2**63 - 1), str(2**63),
           str(10**19), str(2**64)]
REJECTED = [
    lambda rec, draw: _with(rec, bbox=[draw(st.sampled_from(["-1", "NaN", "Infinity", "1e400", "true", "01", "1.", "."])),
                                       *rec["bbox"][1:]]),
    lambda rec, draw: _with(rec, bbox=[*rec["bbox"][:3], "1" * 400]),
    lambda rec, draw: _with(rec, bbox=rec["bbox"][:3]),
    lambda rec, draw: canonical(rec).replace(',"local_id":' + str(rec["local_id"]), ""),
    lambda rec, draw: canonical(rec)[:draw(st.integers(0, len(canonical(rec)) - 1))],
    lambda rec, draw: canonical(rec)[:-1] + ',"feature":7}',
    lambda rec, draw: draw(st.sampled_from(["garbage", "[1,2,3]", "{}", "null", '"text"'])),
]


@st.composite
def lines_(draw) -> str:
    rec = draw(records_())
    kind = draw(st.sampled_from(["canonical", "leap", "bad time", "valid", "rejected", "bad id", "no area", "blank"]))
    if kind == "canonical":
        return canonical(rec)
    if kind in ("leap", "bad time"):
        return _with(rec, record_time=draw(st.sampled_from(LEAP_TIMES if kind == "leap" else BAD_TIMES)))
    if kind == "bad id":
        return _with(rec, **{draw(st.sampled_from(["camera_id", "class_id", "local_id", "global_id"])):
                             draw(st.sampled_from(BAD_IDS))})
    if kind == "no area":  # a w or an h of 0 or less, the other one positive
        box = list(rec["bbox"])
        box[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(["0", "0.0", "-1", "-0.5"]))
        return _with(rec, bbox=box)
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    return draw(st.sampled_from(VALID if kind == "valid" else REJECTED))(rec, draw)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def check_batch_ingest(lines: list[str], split: int, batch: int, disk: bool, tail: int) -> None:
    """Ingest lines[:split] then lines[split:], batch lines at a time, and compare with ingest_per_line.

    On disk, the camera files are then read back without snapshots, tail lines at a time.
    """
    parts = [lines[:split], lines[split:]]
    expected = [ingest_per_line(part) for part in parts]
    handler = _Messages()
    logger = logging.getLogger("svaa.records")
    logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(records, "_BATCH_LINES", batch):
            root = Path(tmp) / "store" if disk else None
            with RecordStore(root) as store:
                for part, (report, warnings, _, _) in zip(parts, expected):
                    del handler.messages[:]
                    got = ingest_stream(part, store)
                    assert (got.accepted, got.rejected, got.first_us, got.last_us) == report
                    assert handler.messages == warnings
            _, _, files, columns = ingest_per_line(lines)
            assert _columns(store) == columns
            if disk:
                assert {int(p.stem[7:]): p.read_text(encoding="utf-8") for p in root.glob("camera_*.jsonl")} == files
                for snap in root.glob("*.snap.npz"):
                    snap.unlink()
                with mock.patch.object(records, "_BATCH_LINES", tail):
                    assert _columns(RecordStore(root)) == columns  # the tail parse of the files
    finally:
        logger.removeHandler(handler)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(lines_(), max_size=12), data=st.data(), batch=st.integers(1, 6), disk=st.booleans())
def test_batch_ingest_is_the_per_line_ingest(lines, data, batch, disk):
    """Report, warnings in order, JSONL bytes and bit-identical columns equal the per-line ingest's."""
    check_batch_ingest(lines, data.draw(st.integers(0, len(lines)), label="split"), batch, disk,
                       data.draw(st.integers(1, 6), label="tail"))


BOX_EDGES = [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "0", "0.0", "1"], ["0", "0", "1", "0.0"],
             ["0", "0.0", "0.000001", "1"], ["9999999999999999", "1", "1", "1"], ["0", "0", "1", "-1"]]
EDGES = ([(f, v) for f in ("camera_id", "class_id", "local_id", "global_id") for v in BAD_IDS]
         + [("record_time", t) for t in BAD_TIMES + LEAP_TIMES] + [("bbox", box) for box in BOX_EDGES])


@pytest.mark.parametrize("batch", [2, 1024])
def test_every_edge_of_the_canonical_shape(batch):
    """Every id, time and box edge once, between canonical lines, so that no draw can miss one."""
    rec = {"record_time": "2023-10-16T09:00:00.500000Z", "camera_id": 2, "class_id": 0,
           "bbox": ["10", "20.5", "50", "100"], "local_id": 7, "global_id": 1001}
    lines = [line for field, value in EDGES for line in (canonical(rec), _with(rec, **{field: value}))]
    check_batch_ingest(lines, len(lines) // 2, batch, True, 3)


def test_every_generated_line_is_canonical():
    """The generator writes the shape that the decoder reads, so a generated stream takes the fast path."""
    profile = synth.default_profile(seed=2, rate_scale=0.05)
    t0, _ = synth.DEFAULT_SPAN
    lines, _ = synth.generate_lines(profile, t0, from_us(parse_rfc3339("2023-10-12T12:00:00Z")))
    lines = list(lines)
    columns = {name: np.zeros(len(lines), dtype=records._DTYPES[code]) for name, code in records._FIELDS}
    assert lines and records._decode(lines, columns).all()


class TestStoredTail:
    """The tail parse of a store's files: numbered from the file start, line by line when a batch is not UTF-8."""

    def _store(self, tmp_path, content: bytes) -> Path:
        root = tmp_path / "store"
        root.mkdir()
        (root / "camera_00001.jsonl").write_bytes(content)
        return root

    @pytest.mark.parametrize("batch", [1, 1024])
    def test_line_that_is_not_utf8_raises_with_its_number(self, tmp_path, batch):
        good = make_line().encode() + b"\n"
        root = self._store(tmp_path, good * 3 + b'{"bad": "\xff"}\n' + good)
        with mock.patch.object(records, "_BATCH_LINES", batch), pytest.raises(MalformedLine, match=r"jsonl:4: not UTF-8"):
            RecordStore(root)

    def test_earlier_bad_line_of_a_batch_that_is_not_utf8_comes_first(self, tmp_path):
        good = make_line().encode() + b"\n"
        root = self._store(tmp_path, good + b"garbage\n" + good + b"\xff\n")
        with pytest.raises(MalformedLine, match=r"jsonl:2: not a JSON record"):
            RecordStore(root)

    def test_valid_lines_of_a_batch_that_is_not_utf8_are_read_before_the_error(self, tmp_path):
        lines = [make_line(global_id=g, feature="Ü") for g in (1, 2)]
        root = self._store(tmp_path, "".join(line + "\n" for line in lines).encode() + b"\xff")
        store = RecordStore(root)  # the bad bytes are a torn last line: skipped with a warning
        assert store.index(1).global_ids.tolist() == [1, 2]

    def test_blank_and_padded_lines_are_read_as_ingest_reads_them(self, tmp_path):
        line = make_line(global_id=5)
        root = self._store(tmp_path, f"\n  {line}\t\n\r\n{line}\n".encode())
        assert RecordStore(root).index(1).global_ids.tolist() == [5, 5]

    @pytest.mark.parametrize("batch", [1, 1024])
    def test_torn_line_past_a_tail_is_numbered_from_the_file_start(self, tmp_path, caplog, batch):
        root = tmp_path / "store"
        with RecordStore(root) as store:  # a snapshot of 3 lines
            ingest_stream([make_line(global_id=g) for g in (1, 2, 3)], store)
        with (root / "camera_00001.jsonl").open("a") as fh:
            fh.write(make_line(global_id=4) + "\n" + make_line(global_id=5) + "\n" + make_line(global_id=6)[:40])
        with mock.patch.object(records, "_BATCH_LINES", batch), caplog.at_level(logging.WARNING, logger="svaa.records"):
            assert RecordStore(root).index(1).global_ids.tolist() == [1, 2, 3, 4, 5]
        assert "camera_00001.jsonl:6: ignoring a torn last line" in caplog.text

    @pytest.mark.parametrize("batch", [2, 1024])
    def test_reading_stops_at_a_torn_line_that_a_writer_ends_meanwhile(self, tmp_path, caplog, batch):
        """A writer appending while the store opens: the open reads up to the torn line and no further."""
        lines = [make_line(global_id=g).encode() + b"\n" for g in range(1, 6)]
        root = self._store(tmp_path, b"".join(lines[:3]) + lines[3][:40])
        path = root / "camera_00001.jsonl"
        islice = records.islice

        def writer_ends_the_line(fh, n):  # the writer finishes line 4 and adds line 5 right after each read
            batch_read = list(islice(fh, n))
            if batch_read and not batch_read[-1].endswith(b"\n") and path.stat().st_size < sum(map(len, lines)):
                with path.open("ab") as w:
                    w.write(lines[3][40:] + lines[4])
            return iter(batch_read)

        with mock.patch.object(records, "_BATCH_LINES", batch), mock.patch.object(records, "islice", writer_ends_the_line), \
                caplog.at_level(logging.WARNING, logger="svaa.records"):
            assert RecordStore(root).index(1).global_ids.tolist() == [1, 2, 3]
        assert "camera_00001.jsonl:4: ignoring a torn last line" in caplog.text
        assert RecordStore(root).index(1).global_ids.tolist() == [1, 2, 3, 4, 5]  # the snapshot holds a prefix
