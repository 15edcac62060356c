"""Descriptive metrics over a record store.

Five views of the same stream: live head-count, per-camera and per-location
hourly means, cumulative distinct totals, and peak-hour ranking. The global
person id is the dedup key throughout, so one person on two cameras of a
location counts once. All functions are pure over a store snapshot. They
take epoch microseconds and return ints and numpy columns; the CLI checks
their numeric options and formats what they return. One query holds at
most MAX_BUCKETS buckets (total) or hour cells (hourly, peaks); a longer
range is refused with RangeTooLong before it is allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTimestamp, InvertedRange, RangeTooLong, UnknownCamera, UnknownLocation
from .records import MAX_SERIES_WINDOWS, RecordStore, distinct_counts, human_rows
from .timeutil import FIRST_US, US_PER_HOUR, floor_to, format_rfc3339

# camera_id -> location label ("" for none); total over configured cameras
LocationMap = dict[int, str]
# The most buckets (total) or hour cells (hourly, peaks) of one query: as many as a replay's windows, since
# a bucket costs about what a window does (~160 B at its peak under tracemalloc, against 100-230 B), so
# both ceilings are about 1 GiB. An hour cell costs ~25 B.
MAX_BUCKETS = MAX_SERIES_WINDOWS


def _check_buckets(n: int, what: str) -> None:
    if n > MAX_BUCKETS:
        raise RangeTooLong(f"{n} {what} in range; one query takes at most {MAX_BUCKETS}")


def resolve_group(
    store: RecordStore,
    group: int | str | None,
    location_map: LocationMap | None = None,
) -> list[int]:
    """Expand a camera id, location label, or None (= all) to camera ids."""
    if group is None:
        return store.camera_ids()
    if isinstance(group, str):
        if not group or not location_map or group not in set(location_map.values()):
            raise UnknownLocation(f"location {group!r} is not configured")
        return sorted(c for c, loc in location_map.items() if loc == group)
    if group not in (location_map or ()) and group not in store.camera_ids():
        raise UnknownCamera(f"camera {group} is neither configured nor stored")
    return [group]


def current_count(store: RecordStore, now_us: int, staleness_us: int) -> int:
    """Distinct people across all cameras with a record in (now - staleness, now], in microseconds."""
    seen: set[int] = set()
    for cid in store.camera_ids():  # one camera at a time keeps the id lists, and peak memory, small
        # (lo, hi] in whole microseconds is [lo + 1, hi + 1)
        (gids,) = human_rows(store, [cid], now_us - staleness_us + 1, now_us + 1, columns=("global_ids",))
        seen.update(gids.tolist())
    return len(seen)


def hourly_average(
    store: RecordStore,
    group: int | str | None,
    t0_us: int,
    t1_us: int,
    location_map: LocationMap | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean distinct-person count per hour of day for a camera or location, as (samples, means).

    The cell of (date, h) is the number of distinct people the group saw
    during that hour. samples[h] counts the cells of hour h that lie fully
    inside [t0, t1), and means[h] is their mean, 0 where samples[h] is 0; both
    arrays have one entry per hour of day. A covered hour that saw nobody is
    a 0-valued cell.
    """
    if t0_us >= t1_us:
        raise InvertedRange(f"need t0 < t1, got {format_rfc3339(t0_us)} .. {format_rfc3339(t1_us)}")
    cameras = resolve_group(store, group, location_map)
    lo_hour = -(-t0_us // US_PER_HOUR)  # ceil: first fully covered hour
    n = max(t1_us // US_PER_HOUR - lo_hour, 0)
    _check_buckets(n, "hour cells")
    times, gids = human_rows(store, cameras, lo_hour * US_PER_HOUR, (lo_hour + n) * US_PER_HOUR)
    counts = distinct_counts(times, gids, lo_hour * US_PER_HOUR, US_PER_HOUR, n)
    hods = np.arange(lo_hour, lo_hour + n, dtype=np.int64) % 24
    samples = np.bincount(hods, minlength=24)
    sums = np.bincount(hods, weights=counts, minlength=24)
    return samples, np.divide(sums, samples, out=np.zeros(24), where=samples > 0)


def total_over_time(store: RecordStore, t0_us: int, t1_us: int, bucket_us: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative distinct-person series from t0 as (starts_us, cumulative), one entry per bucket.

    Both endpoints align down to the epoch-aligned grid of bucket_us
    microseconds. A first bucket that starts before year 1 has no RFC 3339
    text and is refused with InvalidTimestamp. The series is monotone
    nondecreasing and its final value is the distinct count over the whole
    range, independent of bucket size.
    """
    if t0_us > t1_us:
        raise InvertedRange(f"t0 {format_rfc3339(t0_us)} is after t1 {format_rfc3339(t1_us)}")
    start_us, end_us = floor_to(t0_us, bucket_us), floor_to(t1_us, bucket_us)
    n = (end_us - start_us) // bucket_us
    _check_buckets(n, "buckets")
    if n == 0:  # also keeps a bucket wider than int64 out of the numpy arithmetic below
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if start_us < FIRST_US:
        raise InvalidTimestamp(f"the bucket of {format_rfc3339(t0_us)} starts before {format_rfc3339(FIRST_US)}")
    times, gids = human_rows(store, store.camera_ids(), start_us, end_us)
    order = np.argsort(times, kind="stable")
    times, gids = times[order], gids[order]
    _, first_pos = np.unique(gids, return_index=True)
    first_bucket = (times[first_pos] - start_us) // bucket_us
    return start_us + bucket_us * np.arange(n, dtype=np.int64), np.cumsum(np.bincount(first_bucket, minlength=n))


def peak_hours(
    store: RecordStore,
    group: int | str | None,
    t0_us: int,
    t1_us: int,
    k: int,
    location_map: LocationMap | None = None,
) -> list[tuple[int, float]]:
    """Top-k hours of day by hourly mean, value descending then hour ascending."""
    samples, means = hourly_average(store, group, t0_us, t1_us, location_map)
    means = means.tolist()
    return sorted(((hour, means[hour]) for hour in np.flatnonzero(samples).tolist()),
                  key=lambda item: (-item[1], item[0]))[:k]
