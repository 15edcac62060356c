"""Descriptive metrics against brute-force oracles."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa.errors import InvalidTimestamp, InvertedRange, UnknownCamera, UnknownLocation
from svaa.metrics import current_count, hourly_average, peak_hours, total_over_time
from svaa.records import RecordStore
from svaa.timeutil import US_PER_DAY, US_PER_HOUR, format_rfc3339, to_us

from conftest import make_line, store_from_lines, utc

DAY0 = to_us(utc(2023, 10, 16))
S = 1_000_000  # microseconds per second


def _line_at(seconds: int, camera=1, gid=1, cls=0, lid=1):
    return make_line(
        record_time=format_rfc3339(DAY0 + seconds * S),
        camera_id=camera, class_id=cls, global_id=gid, local_id=lid,
    )


class TestCurrentCount:
    def test_empty_store(self, mem_store):
        assert current_count(mem_store, DAY0, 5 * S) == 0

    def test_cross_camera_dedup(self):
        store = store_from_lines([
            _line_at(1, camera=1, gid=42),
            _line_at(2, camera=2, gid=42),
        ])
        assert current_count(store, DAY0 + 5 * S, 5 * S) == 1

    def test_window_is_open_below_closed_above(self):
        store = store_from_lines([_line_at(0, gid=1), _line_at(5, gid=2)])
        now = DAY0 + 5 * S
        # (now-5s, now]: the record at now-5s exactly is excluded, at now included
        assert current_count(store, now, 5 * S) == 1

    def test_non_humans_ignored(self):
        store = store_from_lines([_line_at(1, gid=1, cls=3), _line_at(2, gid=2)])
        assert current_count(store, DAY0 + 5 * S, 5 * S) == 1


@given(st.lists(st.tuples(st.integers(0, 120), st.integers(1, 3), st.integers(1, 9)), max_size=80),
       st.integers(0, 120), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_current_count_matches_scan(rows, now_sec, stale_sec):
    store = store_from_lines([
        _line_at(sec, camera=cam, gid=gid, lid=i + 1)
        for i, (sec, cam, gid) in enumerate(rows)
    ]) if rows else RecordStore()
    got = current_count(store, DAY0 + now_sec * S, stale_sec * S)
    want = len({gid for sec, cam, gid in rows if now_sec - stale_sec < sec <= now_sec})
    assert got == want


class TestHourlyAverage:
    def test_single_cell(self):
        store = store_from_lines([
            _line_at(9 * 3600 + 60 * i, gid=gid, lid=i + 1)
            for i, gid in enumerate((1, 2, 3))
        ])
        samples, means = hourly_average(store, 1, DAY0, DAY0 + US_PER_DAY)
        assert means[9] == 3.0
        assert samples[9] == 1
        assert (means[8], samples[8]) == (0.0, 1)  # covered hour, nobody seen

    def test_mean_over_two_days(self):
        lines = [_line_at(9 * 3600, gid=1), _line_at(9 * 3600 + 60, gid=2)]
        lines += [_line_at(86400 + 9 * 3600 + i, gid=10 + i, lid=5 + i) for i in range(4)]
        store = store_from_lines(lines)
        samples, means = hourly_average(store, 1, DAY0, DAY0 + 2 * US_PER_DAY)
        assert means[9] == 3.0
        assert samples[9] == 2

    def test_partial_hours_excluded(self):
        store = store_from_lines([_line_at(9 * 3600, gid=1)])
        samples, _ = hourly_average(store, 1, DAY0 + 30 * 60 * S, DAY0 + 10 * US_PER_HOUR)
        # hour 0 of the range is partial; hours 1..9 are full
        assert samples[0] == 0
        assert samples[9] == 1

    def test_absent_when_no_cells(self):
        store = store_from_lines([_line_at(0, gid=1)])
        samples, means = hourly_average(store, 1, DAY0, DAY0 + 3 * US_PER_HOUR)
        assert np.flatnonzero(samples).tolist() == [0, 1, 2]
        assert means.shape == samples.shape == (24,) and not means[samples == 0].any()

    def test_location_groups_dedup_globally(self):
        store = store_from_lines([
            _line_at(9 * 3600, camera=1, gid=5),
            _line_at(9 * 3600 + 30, camera=2, gid=5, lid=2),
        ])
        location_map = {1: "building-a", 2: "building-a", 3: "parking"}
        _, means = hourly_average(store, "building-a", DAY0, DAY0 + US_PER_DAY, location_map=location_map)
        assert means[9] == 1.0

    def test_unknown_camera_and_location(self, mem_store):
        location_map = {1: "building-a"}
        with pytest.raises(UnknownCamera):
            hourly_average(mem_store, 99, DAY0, DAY0 + US_PER_DAY, location_map=location_map)
        with pytest.raises(UnknownLocation):
            hourly_average(mem_store, "mall", DAY0, DAY0 + US_PER_DAY, location_map=location_map)

    def test_inverted_range(self, mem_store):
        with pytest.raises(InvertedRange, match="need t0 < t1, got 2023-10-16T00:00:00Z .. 2023-10-16T00:00:00Z"):
            hourly_average(mem_store, None, DAY0, DAY0)


@given(st.lists(st.tuples(st.integers(0, 2 * 86400 - 1), st.integers(1, 2), st.integers(1, 15)),
                max_size=120))
@settings(max_examples=40, deadline=None)
def test_hourly_average_matches_cell_oracle(rows):
    store = store_from_lines([
        _line_at(sec, camera=cam, gid=gid, lid=i + 1)
        for i, (sec, cam, gid) in enumerate(rows)
    ]) if rows else RecordStore()
    samples, means = hourly_average(store, None, DAY0, DAY0 + 2 * US_PER_DAY)
    cells: dict[tuple[int, int], set[int]] = {}
    for sec, cam, gid in rows:
        cells.setdefault((sec // 86400, sec % 86400 // 3600), set()).add(gid)
    for hod in range(24):
        vals = [len(cells.get((d, hod), set())) for d in range(2)]
        assert means[hod] == pytest.approx(sum(vals) / 2)
        assert samples[hod] == 2


class TestTotalOverTime:
    def test_empty_store_all_zero(self, mem_store):
        starts, cumulative = total_over_time(mem_store, DAY0, DAY0 + 60 * S, 20 * S)
        assert starts.tolist() == [DAY0, DAY0 + 20 * S, DAY0 + 40 * S]
        assert cumulative.tolist() == [0, 0, 0]

    def test_set_union_semantics(self):
        store = store_from_lines([
            _line_at(0, gid=1), _line_at(1, gid=2, lid=2),
            _line_at(20, gid=2, lid=3), _line_at(21, gid=3, lid=4),
        ])
        _, cumulative = total_over_time(store, DAY0, DAY0 + 40 * S, 20 * S)
        assert cumulative.tolist() == [2, 3]

    def test_monotone_and_final_value(self):
        rng = random.Random(3)
        rows = [(rng.randrange(0, 600), rng.randrange(1, 2), rng.randrange(1, 40)) for _ in range(300)]
        store = store_from_lines([
            _line_at(sec, camera=cam, gid=gid, lid=i + 1)
            for i, (sec, cam, gid) in enumerate(rows)
        ])
        t1 = DAY0 + 600 * S
        _, cumulative = total_over_time(store, DAY0, t1, 30 * S)
        values = cumulative.tolist()
        assert values == sorted(values)
        assert values[-1] == len({gid for sec, cam, gid in rows})
        # final value invariant to bucket size
        for bucket in (5, 60, 120):
            _, other = total_over_time(store, DAY0, t1, bucket * S)
            assert other[-1] == values[-1]

    def test_a_bucket_before_year_1_is_refused(self, mem_store):
        first = to_us(utc(1, 1, 1))
        year = 365 * US_PER_DAY  # the grid of 365-day buckets from 1970 does not meet 0001-01-01
        with pytest.raises(InvalidTimestamp, match="starts before 0001-01-01T00:00:00Z"):
            total_over_time(mem_store, first, first + 2 * year, year)
        assert total_over_time(mem_store, first, first + 1, year)[1].tolist() == []  # no bucket, nothing to write


class TestPeakHours:
    def _store_with_peaks(self):
        # hour 12 and 15 both mean 5, hour 9 mean 3 over one day
        lines = []
        lid = 1
        for hod, n in ((9, 3), (12, 5), (15, 5)):
            for g in range(n):
                lines.append(_line_at(hod * 3600 + g, gid=hod * 100 + g + 1, lid=lid))
                lid += 1
        return store_from_lines(lines)

    def test_tie_broken_by_smaller_hour(self):
        store = self._store_with_peaks()
        top = peak_hours(store, 1, DAY0, DAY0 + US_PER_DAY, k=2)
        assert top == [(12, 5.0), (15, 5.0)]

    def test_k_truncates(self):
        store = self._store_with_peaks()
        assert len(peak_hours(store, 1, DAY0, DAY0 + US_PER_DAY, k=1)) == 1

    def test_k_larger_than_hours(self):
        store = store_from_lines([_line_at(9 * 3600, gid=1)])
        top = peak_hours(store, 1, DAY0 + 9 * US_PER_HOUR, DAY0 + 11 * US_PER_HOUR, k=10)
        assert top == [(9, 1.0), (10, 0.0)]

    def test_ordering_is_total(self):
        store = self._store_with_peaks()
        top = peak_hours(store, 1, DAY0, DAY0 + US_PER_DAY, k=24)
        pairs = [(-mean, hour) for hour, mean in top]
        assert pairs == sorted(pairs)
