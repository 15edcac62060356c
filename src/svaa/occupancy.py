"""Occupancy classification of 5-second counts against historical percentiles.

Each camera keeps one bounded FIFO history of interval counts per
(hour-of-day, day-class) bucket; the current count is rated LOW / NORMAL /
HIGH against that bucket's 25th and 75th nearest-rank percentiles, computed
before the count itself is inserted. Zeros are retained in these histories
(the zero-exclusion rule applies only to anomaly statistics).

This module also owns the bucket frame that the anomaly replay reads the
same counts through: the default replay range (`replay_span`), the bucket
rule hour_of_day * 2 + weekend_or_holiday (`bucket_slot`) and the table of
a camera's 48 bucket keys in slot order (`bucket_keys`).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyHistory
from .records import RecordStore, window_count_series
from .timeutil import WINDOW_US, epoch_day, from_us, hour_of_day, is_weekend, to_us, window_start

DEFAULT_MIN_SAMPLES = 20  # below this a bucket classifies as UNKNOWN
DEFAULT_CAPACITY = 10_080  # ~14 days of one hour-slot at 720 windows/hour


class DayClass(enum.Enum):
    WEEKDAY = "WEEKDAY"
    WEEKEND_OR_HOLIDAY = "WEEKEND_OR_HOLIDAY"


class Level(enum.IntEnum):
    UNKNOWN = 0
    LOW = 1
    NORMAL = 2
    HIGH = 3


@dataclass(frozen=True, slots=True)
class BucketKey:
    camera_id: int
    hour_of_day: int
    day_class: DayClass

    def __str__(self) -> str:
        return f"camera={self.camera_id} hour={self.hour_of_day:02d} {self.day_class.value}"


def bucket_slot(us, holidays: frozenset[int] = frozenset()):
    """Bucket slot hour_of_day * 2 + weekend_or_holiday of epoch microseconds.

    Takes one timestamp or an int64 array of them; slot s is the key
    bucket_keys(camera_id)[s].
    """
    days = epoch_day(us)
    weekendish = is_weekend(days)
    if holidays:
        weekendish = weekendish | np.isin(days, np.fromiter(holidays, dtype=np.int64))
    return hour_of_day(us) * 2 + weekendish


def bucket_keys(camera_id: int) -> list[BucketKey]:
    """The camera's 48 bucket keys, indexed by bucket slot."""
    return [
        BucketKey(camera_id, slot // 2, DayClass.WEEKEND_OR_HOLIDAY if slot % 2 else DayClass.WEEKDAY)
        for slot in range(48)
    ]


def bucket_key_for(camera_id: int, us: int, holidays: frozenset[int] = frozenset()) -> BucketKey:
    """Bucket for a timestamp: hour of day plus weekday/weekend-or-holiday split."""
    return bucket_keys(camera_id)[int(bucket_slot(us, holidays))]


def replay_span(
    store: RecordStore,
    camera_id: int,
    t0: datetime | None,
    t1: datetime | None,
) -> tuple[int, int] | None:
    """A replay's [t0, t1) in epoch microseconds; None when there is nothing to replay.

    A missing bound defaults to the camera's data extent on the window grid.
    """
    bounds = store.time_bounds(camera_id)
    if bounds is None and (t0 is None or t1 is None):
        return None
    t0_us = to_us(t0) if t0 is not None else window_start(bounds[0])
    t1_us = to_us(t1) if t1 is not None else window_start(bounds[1]) + WINDOW_US
    return t0_us, t1_us


def _nearest_rank(p: float, n: int) -> int:
    """1-indexed nearest rank: ceil(p/100 * n), evaluated in exact arithmetic."""
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    if type(p) is int or (type(p) is float and p.is_integer()):
        return -(-int(p) * n // 100)
    return math.ceil(Fraction(p) * n / 100)


def percentile_nearest_rank(values: Iterable[int], p: float) -> int:
    """Value at the nearest-rank percentile of a multiset of nonnegative ints.

    The element at rank ceil(p/100*n) of the ascending sort, exactly, found
    by the same histogram walk the replay's bucket histories use.
    """
    return _loaded(values).percentile(p)


class BucketSamples:
    """Bounded FIFO multiset of interval counts with a live value histogram."""

    __slots__ = ("capacity", "_fifo", "_hist")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fifo: deque[int] = deque()
        self._hist: dict[int, int] = {}

    def add(self, count: int) -> None:
        """Record one interval count, evicting the oldest beyond capacity."""
        if count < 0:
            raise ValueError("counts are nonnegative")
        self._fifo.append(count)
        self._hist[count] = self._hist.get(count, 0) + 1
        if len(self._fifo) > self.capacity:
            old = self._fifo.popleft()
            remaining = self._hist[old] - 1
            if remaining:
                self._hist[old] = remaining
            else:
                del self._hist[old]

    def __len__(self) -> int:
        return len(self._fifo)

    def values(self) -> list[int]:
        """Retained counts in insertion order."""
        return list(self._fifo)

    def percentile(self, p: float) -> int:
        return self.percentile_pair(p, p)[0]

    def percentile_pair(self, p_lo: float, p_hi: float) -> tuple[int, int]:
        """Two percentiles in one histogram walk (p_lo <= p_hi)."""
        if not self._fifo:
            raise EmptyHistory("percentile of an empty bucket")
        n = len(self._fifo)
        rank_lo = _nearest_rank(p_lo, n)
        rank_hi = _nearest_rank(p_hi, n)
        lo_value = -1
        cumulative = 0
        for value in sorted(self._hist):
            cumulative += self._hist[value]
            if lo_value < 0 and cumulative >= rank_lo:
                lo_value = value
            if cumulative >= rank_hi:
                return lo_value, value
        raise AssertionError("rank exceeds multiset size")


def _loaded(values: Iterable[int]) -> BucketSamples:
    """A BucketSamples holding all of values."""
    pool = list(values)
    samples = BucketSamples(max(len(pool), 1))
    for value in pool:
        samples.add(value)
    return samples


@dataclass(frozen=True, slots=True)
class OccupancyLevel:
    """Classification outcome plus the thresholds that produced it."""

    level: Level
    p25: int | None
    p75: int | None


def classify_occupancy(
    count: int,
    samples: BucketSamples | Iterable[int],
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> OccupancyLevel:
    """Rate a count against a bucket's history, thresholds excluding the count.

    LOW when count <= p25, NORMAL when p25 < count <= p75, HIGH above p75.
    Histories below min_samples yield UNKNOWN rather than noisy thresholds.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not isinstance(samples, BucketSamples):
        samples = _loaded(samples)
    if len(samples) < min_samples:
        return OccupancyLevel(Level.UNKNOWN, None, None)
    p25, p75 = samples.percentile_pair(25, 75)
    if count <= p25:
        level = Level.LOW
    elif count <= p75:
        level = Level.NORMAL
    else:
        level = Level.HIGH
    return OccupancyLevel(level, p25, p75)


@dataclass(frozen=True, slots=True)
class OccupancyObservation:
    camera_id: int
    window_start: datetime
    count: int
    result: OccupancyLevel
    bucket: BucketKey


def replay(
    store: RecordStore,
    camera_id: int,
    *,
    holidays: frozenset[int] = frozenset(),
    t0: datetime | None = None,
    t1: datetime | None = None,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    capacity: int = DEFAULT_CAPACITY,
) -> Iterator[OccupancyObservation]:
    """Classify every 5-second window of one camera in time order.

    Each window is classified against its bucket's history as accumulated so
    far, then appended to it, so replaying a frozen store reproduces the
    exact level sequence. Bounds default to the camera's own data extent.
    """
    span = replay_span(store, camera_id, t0, t1)
    if span is None:
        return
    starts, counts = window_count_series(store, camera_id, *span)
    keys = bucket_keys(camera_id)
    histories = [BucketSamples(capacity) for _ in keys]
    for start, slot, count in zip(starts.tolist(), bucket_slot(starts, holidays).tolist(), counts.tolist()):
        samples = histories[slot]
        result = classify_occupancy(count, samples, min_samples)
        samples.add(count)
        yield OccupancyObservation(camera_id, from_us(start), count, result, keys[slot])
