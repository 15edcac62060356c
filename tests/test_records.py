"""Record parsing, store round-trips, window queries, and interval counts."""

from __future__ import annotations

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa.errors import InvalidBBox, InvalidTimestamp, InvertedRange, MalformedLine, StoreUnwritable
from svaa.records import (
    RecordStore,
    format_record,
    ingest_stream,
    interval_counts,
    parse_record,
    query_window,
)
from svaa.timeutil import WINDOW_US, format_rfc3339, from_us, parse_rfc3339, to_us

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

    def test_format_round_trip(self):
        line = make_line(bbox=(10.5, 20, 50, 100), feature="blob", batch_id="b7")
        rec = parse_record(line)
        again = parse_record(format_record(rec))
        assert again == rec


@given(st.integers(min_value=0, max_value=4_102_444_800_000_000))  # through 2100
def test_timestamp_round_trip_lossless(us):
    assert parse_rfc3339(format_rfc3339(us)) == us


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
        recs = query_window(again, None, utc(2023, 10, 16), utc(2023, 10, 17))
        assert [r.global_id for r in recs] == [1, 2, 3]
        assert recs[1].feature == "fx"
        assert recs[2].batch_id == 9

    def test_one_file_per_camera(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        ingest_stream([make_line(camera_id=3), make_line(camera_id=7)], store)
        store.close()
        names = sorted(p.name for p in (tmp_path / "store").glob("*.jsonl"))
        assert names == ["camera_00003.jsonl", "camera_00007.jsonl"]


class TestQueryWindow:
    def test_empty_half_open(self):
        store = store_from_lines([make_line()])
        t = utc(2023, 10, 16, 9, 0, 0)
        assert query_window(store, None, t, t) == []

    def test_total_query(self):
        lines = [make_line(camera_id=c, global_id=g) for c, g in [(1, 1), (2, 2), (1, 3)]]
        store = store_from_lines(lines)
        assert len(query_window(store, None, utc(2023, 1, 1), utc(2024, 1, 1))) == 3

    def test_camera_filter(self):
        lines = [make_line(camera_id=c, global_id=c) for c in (1, 2, 3)]
        store = store_from_lines(lines)
        got = query_window(store, {1, 3}, utc(2023, 1, 1), utc(2024, 1, 1))
        assert sorted(r.camera_id for r in got) == [1, 3]

    def test_inverted_range(self, mem_store):
        with pytest.raises(InvertedRange):
            query_window(mem_store, None, utc(2023, 10, 2), utc(2023, 10, 1))

    def test_half_open_boundaries(self):
        store = store_from_lines([
            make_line(record_time="2023-10-16T09:00:00Z", global_id=1),
            make_line(record_time="2023-10-16T09:00:05Z", global_id=2),
        ])
        got = query_window(store, None, utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5))
        assert [r.global_id for r in got] == [1]


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
    store, rows = _build(rows)
    t0s, t1s = min(a, b), max(a, b)
    t0 = utc(2023, 10, 16) + timedelta(seconds=t0s)
    t1 = utc(2023, 10, 16) + timedelta(seconds=t1s)
    got = query_window(store, cameras or None, t0, t1)
    want = sorted(
        (sec, cam) for sec, cam, cls, gid in rows
        if t0s <= sec < t1s and (not cameras or cam in cameras)
    )
    assert [(int((r.record_time - utc(2023, 10, 16)).total_seconds()), r.camera_id) for r in got] == want
    times = [r.record_time for r in got]
    assert times == sorted(times)


class TestIntervalCounts:
    def test_distinct_definition(self):
        store = store_from_lines([
            make_line(record_time="2023-10-16T09:00:01Z", global_id=7, local_id=1),
            make_line(record_time="2023-10-16T09:00:02Z", global_id=7, local_id=2),
            make_line(record_time="2023-10-16T09:00:03Z", global_id=9, local_id=3),
        ])
        out = interval_counts(store, 1, utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5))
        assert [c.count for c in out] == [2]

    def test_empty_window_is_zero(self):
        store = store_from_lines([make_line(record_time="2023-10-16T09:00:00Z")])
        out = interval_counts(store, 1, utc(2023, 10, 16, 9, 0, 5), utc(2023, 10, 16, 9, 0, 15))
        assert [c.count for c in out] == [0, 0]

    def test_thirteen_records_nine_people(self):
        lines = []
        gids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4]  # 13 rows, 9 distinct
        for i, gid in enumerate(gids):
            lines.append(make_line(record_time=f"2023-10-16T09:00:0{i % 5}Z",
                                   global_id=gid, local_id=i + 1))
        store = store_from_lines(lines)
        out = interval_counts(store, 1, utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5))
        assert out[0].count == 9

    def test_non_human_classes_ignored(self):
        store = store_from_lines([
            make_line(global_id=1, class_id=0),
            make_line(global_id=2, class_id=2),
        ])
        out = interval_counts(store, 1, utc(2023, 10, 16, 9, 0, 0), utc(2023, 10, 16, 9, 0, 5))
        assert out[0].count == 1

    def test_alignment_floors_both_ends(self):
        store = store_from_lines([make_line(record_time="2023-10-16T09:00:04Z")])
        out = interval_counts(store, 1, utc(2023, 10, 16, 9, 0, 2), utc(2023, 10, 16, 9, 0, 13))
        assert [to_us(c.window_start) % WINDOW_US for c in out] == [0, 0]
        assert len(out) == 2  # [09:00:00, 09:00:10) after align-down
        assert out[0].count == 1

    def test_window_starts_on_grid(self):
        store = store_from_lines([make_line()])
        out = interval_counts(store, 1, utc(2023, 10, 16, 9), utc(2023, 10, 16, 9, 1))
        assert all(to_us(c.window_start) % WINDOW_US == 0 for c in out)
        assert len(out) == 12


@given(random_store_spec())
@settings(max_examples=60, deadline=None)
def test_interval_counts_match_set_oracle(rows):
    store, rows = _build(rows)
    t0, t1 = utc(2023, 10, 16, 0, 0, 0), utc(2023, 10, 16, 0, 10, 5)
    for camera in (1, 2, 3):
        got = interval_counts(store, camera, t0, t1)
        base = to_us(t0)
        for entry in got:
            w0 = (to_us(entry.window_start) - base) // 1_000_000
            people = {
                gid for sec, cam, cls, gid in rows
                if cam == camera and cls == 0 and w0 <= sec < w0 + 5
            }
            assert entry.count == len(people)


@given(random_store_spec())
@settings(max_examples=40, deadline=None)
def test_window_tallies_partition_record_count(rows):
    store, rows = _build(rows)
    t0, t1 = utc(2023, 10, 16, 0, 0, 0), utc(2023, 10, 16, 0, 10, 0)
    for camera in (1, 2, 3):
        per_window_rows = 0
        base = to_us(t0)
        for entry in interval_counts(store, camera, t0, t1):
            w0 = (to_us(entry.window_start) - base) // 1_000_000
            per_window_rows += sum(
                1 for sec, cam, cls, gid in rows if cam == camera and w0 <= sec < w0 + 5
            )
        assert per_window_rows == len(query_window(store, {camera}, t0, t1))


def test_interval_counts_idempotent():
    rng = random.Random(7)
    lines = [
        make_line(record_time=format_rfc3339(to_us(utc(2023, 10, 16)) + rng.randrange(0, 300) * 1_000_000),
                  global_id=rng.randrange(1, 9), local_id=i + 1)
        for i in range(200)
    ]
    store = store_from_lines(lines)
    a = interval_counts(store, 1, utc(2023, 10, 16), utc(2023, 10, 16, 0, 5))
    b = interval_counts(store, 1, utc(2023, 10, 16), utc(2023, 10, 16, 0, 5))
    assert a == b
