"""Record parsing, store round-trips, window queries, and interval counts."""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa.errors import InvalidBBox, InvalidTimestamp, InvertedRange, MalformedLine, RangeTooLong, StoreUnwritable
from svaa.records import (
    MAX_SERIES_WINDOWS,
    RecordStore,
    format_record,
    human_rows,
    ingest_stream,
    parse_record,
    window_count_series,
)
from svaa.timeutil import WINDOW_US, format_rfc3339, from_us, parse_rfc3339, to_us, window_days

from conftest import make_line, store_from_lines, utc


class TestParseRecord:
    def test_basic_line(self):
        rec = parse_record(
            '{"record_time":"2023-10-01T00:00:00Z","camera_id":1,"class_id":0,'
            '"bbox":[10,20,50,100],"local_id":1,"global_id":1001}'
        )
        assert rec.record_time == utc(2023, 10, 1)
        assert rec.camera_id == 1
        assert rec.class_id == 0
        assert (rec.bbox.x, rec.bbox.y, rec.bbox.w, rec.bbox.h) == (10, 20, 50, 100)
        assert rec.local_id == 1
        assert rec.global_id == 1001
        assert rec.feature is None

    def test_zero_width_bbox(self):
        with pytest.raises(InvalidBBox):
            parse_record(make_line(bbox=(10, 20, 0, 100)))

    def test_negative_extent(self):
        with pytest.raises(InvalidBBox):
            parse_record(make_line(bbox=(10, 20, 50, -1)))

    def test_negative_origin(self):
        with pytest.raises(InvalidBBox):
            parse_record(make_line(bbox=(-1, 20, 50, 100)))

    def test_bad_timestamp(self):
        with pytest.raises(InvalidTimestamp):
            parse_record(make_line(record_time="not-a-date"))

    def test_not_json(self):
        with pytest.raises(MalformedLine):
            parse_record("this is not json")

    def test_not_an_object(self):
        with pytest.raises(MalformedLine):
            parse_record("[1,2,3]")

    def test_missing_field(self):
        with pytest.raises(MalformedLine):
            parse_record('{"record_time":"2023-10-01T00:00:00Z","camera_id":1}')

    @pytest.mark.parametrize("field,value", [
        ("camera_id", 0), ("camera_id", "1"), ("class_id", -1),
        ("local_id", 0), ("global_id", -5), ("bbox", [1, 2, 3]),
        ("bbox", ["a", 2, 3, 4]),
    ])
    def test_bad_field_types(self, field, value):
        with pytest.raises(MalformedLine):
            parse_record(make_line(**{field: value}))

    @pytest.mark.parametrize("bbox", [
        "[NaN,20,50,100]", "[10,20,Infinity,100]", "[10,-Infinity,50,100]", "[10,20,50,1e400]",
        "[true,20,50,100]", "[10,20,50,false]", f"[10,20,{10**400},100]",
    ])
    def test_non_finite_or_boolean_bbox(self, bbox):
        line = make_line().replace('"bbox":[10,20,50,100]', f'"bbox":{bbox}')
        with pytest.raises(MalformedLine):
            parse_record(line)

    @pytest.mark.parametrize("field", ["camera_id", "class_id", "local_id", "global_id"])
    def test_ids_beyond_int64(self, field):
        assert parse_record(make_line(**{field: 2**63 - 1}))
        with pytest.raises(MalformedLine):
            parse_record(make_line(**{field: 2**63}))

    def test_out_of_range_id_never_reaches_the_store(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        report = ingest_stream([make_line(global_id=2**64), make_line()], store)
        store.close()
        assert (report.accepted, report.rejected) == (1, 1)
        assert len(RecordStore(tmp_path / "store")) == 1

    def test_feature_passthrough(self):
        rec = parse_record(make_line(feature="AAAA//BBBB=="))
        assert rec.feature == "AAAA//BBBB=="
        assert "AAAA//BBBB==" in format_record(rec)

    def test_batch_id_kept_but_optional(self):
        rec = parse_record(make_line(batch_id=42))
        assert rec.batch_id == 42
        assert parse_record(make_line()).batch_id is None

    def test_fractional_seconds(self):
        rec = parse_record(make_line(record_time="2023-10-01T00:00:00.250000Z"))
        assert rec.record_time.microsecond == 250000

    def test_naive_timestamp_read_as_utc(self):
        rec = parse_record(make_line(record_time="2023-10-01 00:00:05"))
        assert rec.record_time == utc(2023, 10, 1, 0, 0, 5)

    @pytest.mark.parametrize("text,expected", [
        ("2023-10-01T00:00:05", utc(2023, 10, 1, 0, 0, 5)),
        ("2023-10-01t00:00:05z", utc(2023, 10, 1, 0, 0, 5)),
        ("2023-10-01T01:30:05+01:30", utc(2023, 10, 1, 0, 0, 5)),
        ("2023-09-30T23:00:05.5-01:00", utc(2023, 10, 1, 0, 0, 5, 500000)),
    ])
    def test_rfc3339_forms_accepted(self, text, expected):
        assert parse_record(make_line(record_time=text)).record_time == expected

    @pytest.mark.parametrize("text", [
        "2023-10-16", "20231016T090000", "2023-W42-1T09:00:00Z", "2023-10-16T09:00Z",
        "2023-10-16T09Z", "2023-10-16T09:00:00+0100", "2023-10-16T09:00:00,5Z",
        "2023-10-16T09:00:00.Z", "2023-10-16X09:00:00Z", "2023-10-16T09:00:00+01",
    ])
    def test_non_rfc3339_rejected(self, text):
        with pytest.raises(InvalidTimestamp):
            parse_record(make_line(record_time=text))
        report = ingest_stream([make_line(record_time=text), make_line()], RecordStore())
        assert (report.accepted, report.rejected) == (1, 1)

    @pytest.mark.parametrize("text", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
    def test_instant_beyond_the_datetime_range(self, text):
        with pytest.raises(InvalidTimestamp):
            parse_rfc3339(text)
        report = ingest_stream([make_line(record_time=text), make_line()], RecordStore())
        assert (report.accepted, report.rejected) == (1, 1)

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"camera_id":' + "1" * 5000 + "}"])
    def test_json_beyond_the_decoder_limits(self, line):
        with pytest.raises(MalformedLine):
            parse_record(line)
        report = ingest_stream([line, make_line()], RecordStore())
        assert (report.accepted, report.rejected) == (1, 1)

    def test_format_round_trip(self):
        line = make_line(bbox=(10.5, 20, 50, 100), feature="blob", batch_id="b7")
        rec = parse_record(line)
        again = parse_record(format_record(rec))
        assert again == rec


@given(st.integers(min_value=0, max_value=4_102_444_800_000_000))  # through 2100
def test_timestamp_round_trip_lossless(us):
    assert parse_rfc3339(format_rfc3339(us)) == us


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_OFFSET = st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 24), st.integers(0, 59)) \
    | st.sampled_from(["", "Z", "z"])


@st.composite
def _stamps(draw) -> str:
    """RFC 3339 shapes, often a wall clock in the hour at the end of the range that the offset points past."""
    offset = draw(_OFFSET)
    near = datetime(1, 1, 1) if offset.startswith("+") else datetime(9999, 12, 31, 23)
    wall = draw(st.datetimes(near, near + timedelta(minutes=59, seconds=59)) | st.datetimes())
    fraction = draw(st.just("") | st.from_regex(r"\.[0-9]{1,9}", fullmatch=True))
    return wall.replace(microsecond=0).isoformat(draw(st.sampled_from("Tt "))) + fraction + offset


_ID = st.integers(-1, 3) | st.integers(2**63 - 2, 2**63) | _JSON
_PIXEL = st.integers(-1, 10**20) | st.floats() | st.booleans()
_RECORD = st.fixed_dictionaries(
    {"record_time": _stamps() | _JSON, "camera_id": _ID, "class_id": _ID,
     "bbox": st.lists(_PIXEL, min_size=3, max_size=5) | _JSON, "local_id": _ID, "global_id": _ID},
    optional={"feature": st.text(max_size=8) | _JSON, "batch_id": _JSON},
)


@given(_RECORD | st.dictionaries(st.text(max_size=12), _JSON, max_size=8))
@settings(max_examples=300)
def test_parse_rejects_or_format_is_a_fixed_point(obj):
    """Any JSON object is rejected with a typed error, or its canonical line parses back to itself."""
    try:
        rec = parse_record(json.dumps(obj))
    except (MalformedLine, InvalidTimestamp, InvalidBBox):
        return
    canonical = format_record(rec)
    assert format_record(parse_record(canonical)) == canonical


class TestIngest:
    def test_empty_source(self, mem_store):
        report = ingest_stream([], mem_store)
        assert (report.accepted, report.rejected) == (0, 0)
        assert report.first_time is None and report.last_time is None

    def test_counts_and_bad_line(self, mem_store):
        lines = [
            make_line(record_time="2023-10-16T09:00:05Z", global_id=1),
            make_line(record_time="2023-10-16T09:00:00Z", global_id=2),
            "garbage",
            make_line(record_time="2023-10-16T09:00:10Z", global_id=3),
        ]
        report = ingest_stream(lines, mem_store)
        assert (report.accepted, report.rejected) == (3, 1)
        assert report.first_time == utc(2023, 10, 16, 9, 0, 0)
        assert report.last_time == utc(2023, 10, 16, 9, 0, 10)

    def test_reingest_doubles(self, tmp_path):
        lines = [make_line(global_id=g) for g in (1, 2, 3)]
        store = RecordStore(tmp_path / "store")
        assert ingest_stream(lines, store).accepted == 3
        assert ingest_stream(lines, store).accepted == 3
        assert len(store) == 6
        store.close()

    def test_rejects_never_abort(self, mem_store):
        lines = ["", "junk", make_line()]
        report = ingest_stream(lines, mem_store)
        assert report.accepted == 1 and report.rejected == 1  # blank lines skipped

    def test_store_unwritable(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not a directory")
        with pytest.raises(StoreUnwritable):
            RecordStore(blocker / "store")


class TestPersistence:
    def test_disk_round_trip(self, tmp_path):
        lines = [
            make_line(record_time="2023-10-16T09:00:00Z", camera_id=1, global_id=1),
            make_line(record_time="2023-10-16T09:00:01Z", camera_id=2, global_id=2, feature="fx"),
            make_line(record_time="2023-10-16T09:00:02Z", camera_id=1, global_id=3, batch_id=9),
        ]
        store = RecordStore(tmp_path / "store")
        ingest_stream(lines, store)
        store.close()

        again = RecordStore(tmp_path / "store")
        assert again.camera_ids() == [1, 2]
        assert [again.index(c).global_ids.tolist() for c in (1, 2)] == [[1, 3], [2]]
        # feature and batch_id are not columns: the camera files keep each line as it came
        stored = [(tmp_path / "store" / f"camera_0000{c}.jsonl").read_text().splitlines() for c in (1, 2)]
        assert stored == [[lines[0], lines[2]], [lines[1]]]

    def test_one_file_per_camera(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        ingest_stream([make_line(camera_id=3), make_line(camera_id=7)], store)
        store.close()
        names = sorted(p.name for p in (tmp_path / "store").glob("*.jsonl"))
        assert names == ["camera_00003.jsonl", "camera_00007.jsonl"]


def _span(t0: datetime, t1: datetime) -> tuple[int, int]:
    return to_us(t0), to_us(t1)


class TestQueryWindow:
    """The rows of a time range on some cameras, as human_rows reads them from the index."""

    def test_empty_half_open(self):
        store = store_from_lines([make_line()])
        t = utc(2023, 10, 16, 9, 0, 0)
        times, gids = human_rows(store, [1], *_span(t, t))
        assert len(times) == len(gids) == 0 and times.dtype == gids.dtype == np.int64

    def test_total_query(self):
        lines = [make_line(camera_id=c, global_id=g) for c, g in [(1, 1), (2, 2), (1, 3)]]
        store = store_from_lines(lines)
        (gids,) = human_rows(store, store.camera_ids(), *_span(utc(2023, 1, 1), utc(2024, 1, 1)), ("global_ids",))
        assert gids.tolist() == [1, 3, 2]  # camera after camera

    def test_camera_filter(self):
        lines = [make_line(camera_id=c, global_id=c) for c in (1, 2, 3)]
        store = store_from_lines(lines)
        (gids,) = human_rows(store, [1, 3], *_span(utc(2023, 1, 1), utc(2024, 1, 1)), ("global_ids",))
        assert gids.tolist() == [1, 3]

    def test_inverted_range(self, mem_store):
        with pytest.raises(InvertedRange):
            window_count_series(mem_store, 1, *_span(utc(2023, 10, 2), utc(2023, 10, 1)))

    def test_half_open_boundaries(self):
        store = store_from_lines([
            make_line(record_time="2023-10-16T09:00:00Z", global_id=1),
            make_line(record_time="2023-10-16T09:00:05Z", global_id=2),
        ])
        (gids,) = human_rows(store, [1], *_span(utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5)), ("global_ids",))
        assert gids.tolist() == [1]


@st.composite
def random_store_spec(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    rows = []
    for i in range(n):
        rows.append((
            draw(st.integers(min_value=0, max_value=600)),   # seconds offset
            draw(st.integers(min_value=1, max_value=3)),     # camera
            draw(st.integers(min_value=0, max_value=1)),     # class id
            draw(st.integers(min_value=1, max_value=12)),    # global id
        ))
    return rows


def _build(rows):
    lines = []
    for i, (sec, cam, cls, gid) in enumerate(rows):
        stamp = format_rfc3339(to_us(utc(2023, 10, 16)) + sec * 1_000_000)
        lines.append(make_line(record_time=stamp, camera_id=cam, class_id=cls,
                               global_id=gid, local_id=i + 1))
    return store_from_lines(lines), rows


@given(random_store_spec(), st.integers(0, 600), st.integers(0, 600), st.sets(st.integers(1, 3)))
@settings(max_examples=60, deadline=None)
def test_query_window_matches_linear_scan(rows, a, b, cameras):
    """human_rows: the human rows in [t0, t1) camera after camera, each camera's in time then append order."""
    store, rows = _build(rows)
    t0s, t1s = min(a, b), max(a, b)
    base = to_us(utc(2023, 10, 16))
    times, gids, lids = human_rows(store, sorted(cameras), base + t0s * 1_000_000, base + t1s * 1_000_000,
                                   ("times", "global_ids", "local_ids"))
    want = [
        (sec, gid, i + 1) for cam in sorted(cameras)
        for sec, i, gid in sorted((sec, i, gid) for i, (sec, c, cls, gid) in enumerate(rows)
                                  if c == cam and cls == 0 and t0s <= sec < t1s)
    ]
    assert list(zip(((times - base) // 1_000_000).tolist(), gids.tolist(), lids.tolist())) == want


class TestIntervalCounts:
    """Distinct people per 5-second window, from window_count_series."""

    def test_distinct_definition(self):
        store = store_from_lines([
            make_line(record_time="2023-10-16T09:00:01Z", global_id=7, local_id=1),
            make_line(record_time="2023-10-16T09:00:02Z", global_id=7, local_id=2),
            make_line(record_time="2023-10-16T09:00:03Z", global_id=9, local_id=3),
        ])
        _, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5)))
        assert counts.tolist() == [2]

    def test_empty_window_is_zero(self):
        store = store_from_lines([make_line(record_time="2023-10-16T09:00:00Z")])
        _, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9, 0, 5), utc(2023, 10, 16, 9, 0, 15)))
        assert counts.tolist() == [0, 0]

    def test_thirteen_records_nine_people(self):
        lines = []
        gids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4]  # 13 rows, 9 distinct
        for i, gid in enumerate(gids):
            lines.append(make_line(record_time=f"2023-10-16T09:00:0{i % 5}Z",
                                   global_id=gid, local_id=i + 1))
        store = store_from_lines(lines)
        _, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5)))
        assert counts.tolist() == [9]

    def test_non_human_classes_ignored(self):
        store = store_from_lines([
            make_line(global_id=1, class_id=0),
            make_line(global_id=2, class_id=2),
        ])
        _, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5)))
        assert counts.tolist() == [1]

    def test_alignment_floors_both_ends(self):
        store = store_from_lines([make_line(record_time="2023-10-16T09:00:04Z")])
        starts, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9, 0, 2), utc(2023, 10, 16, 9, 0, 13)))
        assert starts.tolist() == [to_us(utc(2023, 10, 16, 9, 0, 0)), to_us(utc(2023, 10, 16, 9, 0, 5))]
        assert counts.tolist() == [1, 0]  # [09:00:00, 09:00:10) after align-down

    def test_window_starts_on_grid(self):
        store = store_from_lines([make_line()])
        starts, counts = window_count_series(store, 1, *_span(utc(2023, 10, 16, 9), utc(2023, 10, 16, 9, 1)))
        assert (starts % WINDOW_US == 0).all() and (np.diff(starts) == WINDOW_US).all()
        assert len(starts) == len(counts) == 12


@given(random_store_spec())
@settings(max_examples=60, deadline=None)
def test_interval_counts_match_set_oracle(rows):
    store, rows = _build(rows)
    base, end = _span(utc(2023, 10, 16, 0, 0, 0), utc(2023, 10, 16, 0, 10, 5))
    for camera in (1, 2, 3):
        starts, counts = window_count_series(store, camera, base, end)
        assert len(starts) == 121
        for start, count in zip(starts.tolist(), counts.tolist()):
            w0 = (start - base) // 1_000_000
            people = {
                gid for sec, cam, cls, gid in rows
                if cam == camera and cls == 0 and w0 <= sec < w0 + 5
            }
            assert count == len(people)


@given(random_store_spec())
@settings(max_examples=40, deadline=None)
def test_window_tallies_partition_record_count(rows):
    store, rows = _build(rows)
    base, end = _span(utc(2023, 10, 16, 0, 0, 0), utc(2023, 10, 16, 0, 10, 0))
    for camera in (1, 2, 3):
        per_window_rows = 0
        for start in window_count_series(store, camera, base, end)[0].tolist():
            w0 = (start - base) // 1_000_000
            per_window_rows += sum(
                1 for sec, cam, cls, gid in rows if cam == camera and w0 <= sec < w0 + 5
            )
        lo, hi = store.index(camera).slice(base, end)
        assert per_window_rows == hi - lo


def test_window_count_series_refuses_a_range_past_the_limit_before_allocating():
    store = store_from_lines([make_line()])
    t0 = to_us(utc(2023, 10, 16))
    assert len(window_count_series(store, 1, t0, t0 + 17_280 * WINDOW_US)[0]) == 17_280
    with pytest.raises(RangeTooLong):  # an allocation of this size would fail: the check comes first
        window_count_series(store, 1, t0, t0 + (MAX_SERIES_WINDOWS + 1) * WINDOW_US)


def test_window_days_split_at_midnight():
    t0 = to_us(utc(2023, 10, 16, 23, 59, 50))
    starts = [t0 + k * WINDOW_US for k in range(17_283)]
    days = list(window_days(starts))
    assert [(lo, hi, date) for lo, hi, date, _ in days] == [
        (0, 2, "2023-10-16"), (2, 17_282, "2023-10-17"), (17_282, 17_283, "2023-10-18")]
    assert [date + time for _, _, date, times in days for time in times] == [format_rfc3339(us) for us in starts]
    assert list(window_days([])) == []


def test_interval_counts_idempotent():
    rng = random.Random(7)
    lines = [
        make_line(record_time=format_rfc3339(to_us(utc(2023, 10, 16)) + rng.randrange(0, 300) * 1_000_000),
                  global_id=rng.randrange(1, 9), local_id=i + 1)
        for i in range(200)
    ]
    store = store_from_lines(lines)
    a = window_count_series(store, 1, *_span(utc(2023, 10, 16), utc(2023, 10, 16, 0, 5)))
    b = window_count_series(store, 1, *_span(utc(2023, 10, 16), utc(2023, 10, 16, 0, 5)))
    assert all(np.array_equal(x, y) for x, y in zip(a, b)) and a[1].sum() > 0
