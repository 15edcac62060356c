"""Occupancy classification of 5-second counts against historical percentiles.

Each camera keeps one bounded FIFO history of interval counts per
(hour-of-day, day-class) bucket; the current count is rated LOW / NORMAL /
HIGH against that bucket's 25th and 75th nearest-rank percentiles, computed
before the count itself is inserted. Zeros are retained in these histories
(the zero-exclusion rule applies only to anomaly statistics).

This module also owns the bucket frame that the anomaly replay reads the
same counts through: the windows, counts and slots of a replay range
(`bucket_series`), the bucket rule hour_of_day * 2 + weekend_or_holiday
(`bucket_slot`), the rows of each slot (`slot_rows`) and the table of a
camera's 48 bucket keys in slot order (`bucket_keys`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, NamedTuple

import numpy as np

from .errors import EmptyHistory, InvalidTimestamp
from .records import RecordStore, window_count_series
from .timeutil import (US_PER_DAY, US_PER_HOUR, WINDOW_US, epoch_day, format_rfc3339, from_us, hour_of_day,
                       is_weekend, to_us, window_start)

DEFAULT_MIN_SAMPLES = 20  # below this a bucket classifies as UNKNOWN
DEFAULT_CAPACITY = 10_080  # ~14 days of one hour-slot at 720 windows/hour
_LAST_US = to_us(datetime.max)  # 9999-12-31T23:59:59.999999Z, the last instant RFC 3339 writes


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


def bucket_series(store: RecordStore, camera_id: int, t0_us: int | None, t1_us: int | None,
                  holidays: frozenset[int] = frozenset(), series=None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A replay's window starts, counts and bucket slots over [t0, t1) in epoch microseconds.

    None when there is nothing to replay. A missing bound defaults to the
    camera's data extent on the window grid. series stands in for
    window_count_series, looked up when called: anomaly passes its own
    module's name for it, so each replay's calls go through its own module.
    """
    bounds = store.time_bounds(camera_id)
    if bounds is None and (t0_us is None or t1_us is None):
        return None
    t0_us = t0_us if t0_us is not None else window_start(bounds[0])
    t1_us = t1_us if t1_us is not None else window_start(bounds[1]) + WINDOW_US
    starts, counts = (series or window_count_series)(store, camera_id, t0_us, t1_us)
    return starts, counts, bucket_slot(starts, holidays)


def slot_rows(slots: np.ndarray) -> Iterator[np.ndarray]:
    """The row indices of each bucket slot present in slots, in time order."""
    for slot in np.unique(slots):
        yield np.flatnonzero(slots == slot)


_BLOCK_CELLS = 1 << 15  # histogram cells per block of windows: bounds the kernel's scratch memory


def _prefix_rows(codes: np.ndarray, base: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """Rows k0..k1-1 of the prefix histograms of codes, row k counting codes[:k]; base is row k0."""
    rows = np.zeros((k1 - k0, len(base)), dtype=np.int64)
    rows[0] = base
    rows[np.arange(1, k1 - k0), codes[k0:k1 - 1]] = 1
    return np.cumsum(rows, axis=0, out=rows)


def classify_slot(counts: np.ndarray, capacity: int = DEFAULT_CAPACITY,
                  min_samples: int = DEFAULT_MIN_SAMPLES) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level, p25 and p75 of each window of one bucket's count sequence.

    Window j is rated against the FIFO of the min(j, capacity) counts before
    it: LOW when its count <= p25, NORMAL when <= p75, HIGH above, and
    UNKNOWN, with p25 = p75 = -1, while the FIFO holds fewer than
    min_samples counts. The FIFO's histogram is cum[j] - cum[max(j - capacity, 0)]
    for the prefix histograms cum, and a nearest-rank percentile is the first
    value whose running sum reaches ceil(p/100 * size). Windows are taken a
    block at a time, so scratch memory does not grow with the sequence.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    m = len(counts)
    if min_samples < 1 and m:
        raise EmptyHistory("percentile of an empty bucket")
    p25, p75 = np.full(m, -1, dtype=np.int64), np.full(m, -1, dtype=np.int64)
    start = min(min_samples, m) if min_samples <= capacity else m  # the first window with enough history
    values, codes = np.unique(counts, return_inverse=True)
    up = np.bincount(codes[:start], minlength=len(values))  # cum[a] for the block starting at a
    down = np.bincount(codes[:max(start - capacity, 0)], minlength=len(values))  # cum[max(a - capacity, 0)]
    block = max(1, _BLOCK_CELLS // max(len(values), 1))
    for a in range(start, m, block):
        b = min(a + block, m)
        lo = np.maximum(np.arange(a, b) - capacity, 0)
        hist = _prefix_rows(codes, up, a, b)
        hist -= _prefix_rows(codes, down, lo[0], lo[-1] + 1)[lo - lo[0]]
        np.cumsum(hist, axis=1, out=hist)
        size = np.minimum(np.arange(a, b), capacity)
        p25[a:b] = values[np.argmax(hist >= -(-25 * size // 100)[:, None], axis=1)]
        p75[a:b] = values[np.argmax(hist >= -(-75 * size // 100)[:, None], axis=1)]
        up += np.bincount(codes[a:b], minlength=len(values))
        down += np.bincount(codes[lo[0]:max(b - capacity, 0)], minlength=len(values))
    level = np.where(counts <= p25, Level.LOW, np.where(counts <= p75, Level.NORMAL, Level.HIGH)).astype(np.int8)
    level[:start] = Level.UNKNOWN
    return level, p25, p75


class Levels(NamedTuple):
    """A replay's windows as columns, in time order."""

    starts: np.ndarray  # window starts, epoch microseconds
    counts: np.ndarray
    slots: np.ndarray  # bucket slots, see bucket_slot
    level: np.ndarray  # Level values
    p25: np.ndarray  # -1 where the level is UNKNOWN
    p75: np.ndarray


def levels(store: RecordStore, camera_id: int, *, holidays: frozenset[int] = frozenset(),
           t0_us: int | None = None, t1_us: int | None = None, min_samples: int = DEFAULT_MIN_SAMPLES,
           capacity: int = DEFAULT_CAPACITY) -> Levels | None:
    """Classify every 5-second window of one camera in [t0, t1), each bucket slot on its own (see classify_slot).

    None when there is nothing to replay. Bounds default to the camera's own
    data extent.
    """
    frame = bucket_series(store, camera_id, t0_us, t1_us, holidays)
    if frame is None:
        return None
    starts, counts, slots = frame
    columns = (np.zeros(len(counts), dtype=np.int8), np.full(len(counts), -1), np.full(len(counts), -1))
    for rows in slot_rows(slots):
        for column, values in zip(columns, classify_slot(counts[rows], capacity, min_samples)):
            column[rows] = values
    return Levels(starts, counts, slots, *columns)


def level_at(store: RecordStore, camera_id: int, at_us: int, *, holidays: frozenset[int] = frozenset(),
             min_samples: int = DEFAULT_MIN_SAMPLES, capacity: int = DEFAULT_CAPACITY) -> Levels | None:
    """The window holding at_us as one-row Levels, rated as by levels() from the camera's data start.

    A window is rated against at most capacity earlier windows of its bucket
    slot, so only those are read: the target's hour on each earlier day of
    the same day class, newest first, until capacity windows are in hand or
    the data start is reached. None when the camera has no record before the
    end of the target window. The window holding 9999-12-31T23:59:59Z ends
    past the last RFC 3339 instant and is refused with InvalidTimestamp.
    """
    target = window_start(at_us)
    if target + WINDOW_US > _LAST_US:
        raise InvalidTimestamp(f"the window from {format_rfc3339(target)} ends after {format_rfc3339(_LAST_US)}")
    bounds = store.time_bounds(camera_id)
    if bounds is None or window_start(bounds[0]) > target:
        return None
    first, slot = window_start(bounds[0]), bucket_slot(target, holidays)
    runs, need = [], capacity + 1  # the target and a full FIFO before it
    hour, t1 = target - target % US_PER_HOUR, target + WINDOW_US
    while need and t1 > first:
        if bucket_slot(hour, holidays) == slot:
            runs.append(window_count_series(store, camera_id, max(hour, first, t1 - need * WINDOW_US), t1)[1])
            need -= len(runs[-1])
        hour -= US_PER_DAY
        t1 = hour + US_PER_HOUR
    counts = np.concatenate(runs[::-1])
    columns = classify_slot(counts, capacity, min_samples)
    return Levels(np.array([target]), counts[-1:], np.array([slot]), *(column[-1:] for column in columns))


@dataclass(frozen=True, slots=True)
class OccupancyLevel:
    """Classification outcome plus the thresholds that produced it."""

    level: Level
    p25: int | None
    p75: int | None


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
    """levels() as one observation per window, in time order."""
    series = levels(store, camera_id, holidays=holidays, t0_us=None if t0 is None else to_us(t0),
                    t1_us=None if t1 is None else to_us(t1), min_samples=min_samples, capacity=capacity)
    if series is None:
        return
    keys = bucket_keys(camera_id)
    for start, count, slot, level, p25, p75 in zip(*(column.tolist() for column in series)):
        known = level != Level.UNKNOWN
        result = OccupancyLevel(Level(level), p25 if known else None, p75 if known else None)
        yield OccupancyObservation(camera_id, from_us(start), count, result, keys[slot])
