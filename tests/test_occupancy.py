"""Nearest-rank percentiles and the LOW/NORMAL/HIGH classifier."""

from __future__ import annotations

import math
import random
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaa import occupancy
from svaa.errors import EmptyHistory
from svaa.occupancy import (
    BucketKey,
    DayClass,
    Level,
    OccupancyLevel,
    bucket_keys,
    bucket_slot,
    classify_slot,
    level_at,
    levels,
    replay,
)
from svaa.timeutil import WINDOW_US, date_to_day, to_us, window_start

from conftest import make_line, store_from_lines, utc
from oracle import BucketSamples, classify_occupancy, percentile_nearest_rank, replay_levels


def sort_oracle(values, p):
    """Independent nearest-rank reference: full sort plus 1-indexed pick."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[rank - 1]


class TestPercentile:
    def test_quartile_of_four(self):
        assert percentile_nearest_rank([1, 2, 3, 4], 25) == 1

    def test_rank_six_of_eight(self):
        assert percentile_nearest_rank([0, 0, 0, 1, 1, 1, 2, 3], 75) == 1

    def test_p100_is_max(self):
        assert percentile_nearest_rank([5, 1, 9], 100) == 9

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            percentile_nearest_rank([], 50)

    @pytest.mark.parametrize("p", [0, -1, 101])
    def test_percent_domain(self, p):
        with pytest.raises(ValueError):
            percentile_nearest_rank([1, 2], p)

    def test_order_invariant(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        shuffled = values[::-1]
        for p in (10, 25, 50, 75, 90):
            assert percentile_nearest_rank(values, p) == percentile_nearest_rank(shuffled, p)

    def test_random_against_sort_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randrange(1, 400)
            values = [rng.randrange(0, 500) for _ in range(n)]
            p = rng.choice((5, 10, 25, 50, 75, 90, 95, 99, 100))
            assert percentile_nearest_rank(values, p) == sort_oracle(values, p)

    def test_large_values_fall_back_to_selection(self):
        values = [10**9, 5, 10**9 + 7, 3]
        assert percentile_nearest_rank(values, 100) == 10**9 + 7
        assert percentile_nearest_rank(values, 25) == sort_oracle(values, 25)


@given(st.lists(st.integers(0, 300), min_size=1, max_size=400),
       st.sampled_from((1, 5, 25, 50, 75, 95, 100)))
def test_percentile_matches_oracle_property(values, p):
    assert percentile_nearest_rank(values, p) == sort_oracle(values, p)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_p25_never_exceeds_p75(values):
    assert percentile_nearest_rank(values, 25) <= percentile_nearest_rank(values, 75)


class TestBucketSamples:
    def test_insert_into_empty(self):
        samples = BucketSamples(capacity=10)
        samples.add(3)
        assert len(samples) == 1

    def test_fifo_bound(self):
        samples = BucketSamples(capacity=5)
        for v in range(6):
            samples.add(v)
        assert len(samples) == 5
        assert samples.values() == [1, 2, 3, 4, 5]  # oldest (0) evicted

    def test_zeros_are_kept(self):
        samples = BucketSamples(capacity=10)
        for v in (0, 0, 1):
            samples.add(v)
        assert samples.values() == [0, 0, 1]

    def test_percentiles_track_sorted_list(self):
        rng = random.Random(11)
        samples = BucketSamples(capacity=50)
        for _ in range(200):
            samples.add(rng.randrange(0, 12))
            for p in (25, 75):
                assert samples.percentile(p) == sort_oracle(samples.values(), p)


class TestClassify:
    def test_weekend_high(self):
        level = classify_occupancy(2, [0, 0, 0, 0, 1, 1, 1, 1], min_samples=8)
        assert (level.level, level.p25, level.p75) == (Level.HIGH, 0, 1)

    def test_weekday_normal(self):
        level = classify_occupancy(2, [0, 1, 1, 2, 2, 3, 3, 4], min_samples=8)
        assert (level.level, level.p25, level.p75) == (Level.NORMAL, 1, 3)
        assert classify_occupancy(3, [0, 1, 1, 2, 2, 3, 3, 4], min_samples=8).level == Level.NORMAL  # count == p75
        # p25 is rank 1 of 4 and p75 rank 3; p26 would be rank 2 and rate this count LOW
        assert classify_occupancy(1, [0, 1, 2, 3], min_samples=4) == OccupancyLevel(Level.NORMAL, 0, 2)

    def test_zero_count_is_low(self):
        level = classify_occupancy(0, [1, 2, 3, 4, 5], min_samples=1)
        assert level.level == Level.LOW

    def test_cold_start_unknown(self):
        level = classify_occupancy(2, [0, 0, 0, 0, 1, 1, 1, 1])  # default min 20
        assert level.level == Level.UNKNOWN
        assert level.p25 is None and level.p75 is None

    def test_bucket_samples_and_list_agree(self):
        samples = BucketSamples(capacity=100)
        pool = [0, 1, 1, 2, 2, 3, 3, 4]
        for v in pool:
            samples.add(v)
        for count in range(6):
            assert classify_occupancy(count, samples, 8) == classify_occupancy(count, pool, 8)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=120),
       st.integers(0, 35), st.integers(0, 35))
def test_level_monotone_in_count(history, c1, c2):
    lo, hi = min(c1, c2), max(c1, c2)
    a = classify_occupancy(lo, history, min_samples=1)
    b = classify_occupancy(hi, history, min_samples=1)
    assert a.level <= b.level


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100), st.integers(0, 100))
def test_growing_sample_never_lowers_p75(history, extra):
    p75_before = percentile_nearest_rank(history, 75)
    bigger = max(history) + 1 + extra
    assert percentile_nearest_rank(history + [bigger], 75) >= p75_before


class TestBucketKey:
    """bucket_slot picks a timestamp's slot, and bucket_keys(camera)[slot] is its key."""

    def test_weekday_vs_weekend(self):
        monday = to_us(utc(2023, 10, 16, 9))
        saturday = to_us(utc(2023, 10, 14, 9))
        assert bucket_keys(1)[bucket_slot(monday)].day_class == DayClass.WEEKDAY
        assert bucket_keys(1)[bucket_slot(saturday)].day_class == DayClass.WEEKEND_OR_HOLIDAY

    def test_holiday_override(self):
        thursday = to_us(utc(2023, 10, 12, 9))
        holidays = frozenset({date_to_day(utc(2023, 10, 12).date())})
        assert bucket_keys(1)[bucket_slot(thursday)].day_class == DayClass.WEEKDAY
        assert bucket_keys(1)[bucket_slot(thursday, holidays)].day_class == DayClass.WEEKEND_OR_HOLIDAY

    def test_hour_field(self):
        key = bucket_keys(3)[bucket_slot(to_us(utc(2023, 10, 16, 17, 59)))]
        assert (key.camera_id, key.hour_of_day) == (3, 17)


class TestReplay:
    def _store(self, seed=5, seconds=3600, cameras=(1,)):
        rng = random.Random(seed)
        lines = []
        lid = 0
        from svaa.timeutil import format_rfc3339
        base = to_us(utc(2023, 10, 16, 9))
        for cam in cameras:
            for _ in range(300):
                lid += 1
                lines.append(make_line(
                    record_time=format_rfc3339(base + rng.randrange(0, seconds) * 1_000_000),
                    camera_id=cam, global_id=rng.randrange(1, 25), local_id=lid,
                ))
        return store_from_lines(lines)

    def test_threshold_oracle_during_stream(self):
        # at every step the thresholds must equal a recomputation over the
        # retained window (last `capacity` counts of the bucket, pre-update)
        store = self._store()
        shadow: dict[BucketKey, list[int]] = {}
        for obs in replay(store, 1, min_samples=5, capacity=40):
            retained = shadow.setdefault(obs.bucket, [])[-40:]
            if len(retained) >= 5:
                assert obs.result.p25 == sort_oracle(retained, 25)
                assert obs.result.p75 == sort_oracle(retained, 75)
            else:
                assert obs.result.level == Level.UNKNOWN
            shadow[obs.bucket].append(obs.count)

    def test_replay_is_reproducible(self):
        store = self._store()
        t0, t1 = utc(2023, 10, 16, 9), utc(2023, 10, 16, 10)
        first = [(obs.count, obs.result) for obs in replay(store, 1, min_samples=3, t0=t0, t1=t1)]
        second = [(obs.count, obs.result) for obs in replay(store, 1, min_samples=3, t0=t0, t1=t1)]
        assert first == second
        assert len(first) == 720  # one hour of 5-second windows

    def test_windows_cover_request_range(self):
        store = self._store()
        t0, t1 = utc(2023, 10, 16, 9), utc(2023, 10, 16, 9, 10)
        observations = list(replay(store, 1, t0=t0, t1=t1))
        assert len(observations) == 120
        assert observations[0].window_start == t0

    def test_classify_then_update_excludes_own_count(self):
        store = store_from_lines([
            make_line(record_time="2023-10-16T09:00:01Z", global_id=g, local_id=g)
            for g in range(1, 4)
        ])
        # single nonempty window: its classification must not see its own count
        observations = list(replay(store, 1, min_samples=1,
                                   t0=utc(2023, 10, 16, 9), t1=utc(2023, 10, 16, 9, 0, 10)))
        assert observations[0].result.level == Level.UNKNOWN  # empty history at step 1
        assert observations[1].result.p75 == 3  # now history holds the first window


@st.composite
def count_streams(draw):
    """One bucket's counts, a capacity of 1-64, min_samples near the length, and a kernel block size."""
    n = draw(st.integers(0, 200))
    top = draw(st.sampled_from((1, 3, 12, 200)))
    counts = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    capacity = draw(st.integers(1, 64))
    min_samples = draw(st.integers(max(n - 3, 1), n + 3) | st.integers(1, min(capacity, n) + 3))
    block_cells = draw(st.sampled_from((1, 5, 64, occupancy._BLOCK_CELLS)))
    return counts, capacity, min_samples, block_cells


@given(count_streams())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_scalar_replay(stream):
    counts, capacity, min_samples, block_cells = stream
    saved = occupancy._BLOCK_CELLS
    occupancy._BLOCK_CELLS = block_cells  # small blocks: each block's FIFO starts mid-stream
    try:
        level, p25, p75 = classify_slot(np.array(counts, dtype=np.int64), capacity, min_samples)
    finally:
        occupancy._BLOCK_CELLS = saved
    want = replay_levels(counts, [0] * len(counts), capacity, min_samples)
    assert level.tolist() == [r.level for r in want]
    assert p25.tolist() == [-1 if r.p25 is None else r.p25 for r in want]
    assert p75.tolist() == [-1 if r.p75 is None else r.p75 for r in want]


class TestKernel:
    def test_eviction_at_the_capacity_boundary(self):
        counts = np.array([5, 5, 0, 0, 0, 9, 1], dtype=np.int64)
        level, p25, p75 = classify_slot(counts, capacity=3, min_samples=3)
        # window 4 sees [5, 0, 0], window 5 [0, 0, 0] (both fives evicted), window 6 [0, 0, 9]
        assert p25.tolist() == [-1, -1, -1, 0, 0, 0, 0]
        assert p75.tolist() == [-1, -1, -1, 5, 5, 0, 9]
        assert level.tolist() == [Level.UNKNOWN] * 3 + [Level.LOW, Level.LOW, Level.HIGH, Level.NORMAL]

    def test_empty_slot(self):
        assert [c.tolist() for c in classify_slot(np.zeros(0, dtype=np.int64))] == [[], [], []]

    def test_min_samples_beyond_capacity_stays_unknown(self):
        level, p25, _ = classify_slot(np.arange(50, dtype=np.int64), capacity=10, min_samples=11)
        assert set(level.tolist()) == {Level.UNKNOWN} and set(p25.tolist()) == {-1}

    def test_parameter_domain(self):
        with pytest.raises(EmptyHistory):  # the first window would be rated against no history
            classify_slot(np.ones(3, dtype=np.int64), min_samples=0)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_level_at_is_the_replay_from_the_data_start(data):
    """level_at reads back only a full FIFO of its bucket, over earlier days of its day class, holidays included."""
    days = range(12, 18)  # 2023-10-12 (a Thursday) to 2023-10-17
    stamps = data.draw(st.lists(st.tuples(st.sampled_from(days), st.integers(0, 3599), st.integers(1, 4)),
                                min_size=1, max_size=60))
    store = store_from_lines([make_line(record_time=f"2023-10-{d}T09:{s // 60:02d}:{s % 60:02d}Z", global_id=g)
                              for d, s, g in stamps])
    holidays = frozenset(date_to_day(date(2023, 10, d)) for d in data.draw(st.sets(st.sampled_from(days))))
    kwargs = dict(holidays=holidays, capacity=data.draw(st.integers(1, 1500)), min_samples=data.draw(st.integers(1, 40)))
    targets = [to_us(utc(2023, 10, data.draw(st.sampled_from(days)), data.draw(st.sampled_from((9, 10))), 0, 0))
               + data.draw(st.integers(0, 3599)) * 1_000_000 for _ in range(4)]
    first = window_start(store.time_bounds(1)[0])
    replayed = levels(store, 1, t1_us=max(max(targets) + WINDOW_US, first), **kwargs)
    for target in targets:
        got = level_at(store, 1, target, **kwargs)
        if window_start(target) < first:
            assert got is None
            continue
        row = (window_start(target) - first) // WINDOW_US
        assert [column.tolist() for column in got] == [column[row:row + 1].tolist() for column in replayed]
