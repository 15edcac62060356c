"""Descriptive metrics over a record store.

Five views of the same stream: live head-count, per-camera and per-location
hourly means, cumulative distinct totals, and peak-hour ranking. The global
person id is the dedup key throughout, so one person on two cameras of a
location counts once. All functions are pure over a store snapshot. One
query holds at most MAX_BUCKETS buckets (total) or hour cells (hourly,
peaks); a longer range is refused with RangeTooLong before it is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .errors import InvertedRange, RangeTooLong, UnknownCamera, UnknownLocation
from .records import MAX_SERIES_WINDOWS, RecordStore, distinct_counts, human_rows
from .timeutil import US_PER_HOUR, floor_to, from_us, to_us

# camera_id -> location label ("" for none); total over configured cameras
LocationMap = dict[int, str]
# The most buckets (total) or hour cells (hourly, peaks) of one query: as many as a replay's windows, since
# a bucket costs about what a window does (~160 B at its peak under tracemalloc, against 100-230 B), so
# both ceilings are about 1 GiB. An hour cell costs ~25 B.
MAX_BUCKETS = MAX_SERIES_WINDOWS


def _check_buckets(n: int, what: str) -> None:
    if n > MAX_BUCKETS:
        raise RangeTooLong(f"{n} {what} in range; one query takes at most {MAX_BUCKETS}")


@dataclass(slots=True)
class HourlyProfile:
    """Mean distinct-person count per hour of day, over full calendar-hour cells.

    Hours with no fully covered (date, hour) cell in range are absent; a
    covered hour that saw nobody contributes a 0-valued cell.
    """

    means: dict[int, float] = field(default_factory=dict)
    samples: dict[int, int] = field(default_factory=dict)


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


def current_count(store: RecordStore, now: datetime, staleness: timedelta) -> int:
    """Distinct people across all cameras with a record in (now - staleness, now]."""
    if staleness <= timedelta(0):
        raise ValueError("staleness must be positive")
    hi_us = to_us(now)
    lo_us = hi_us - round(staleness.total_seconds() * 1_000_000)
    seen: set[int] = set()
    for cid in store.camera_ids():  # one camera at a time keeps the id lists, and peak memory, small
        # (lo, hi] in whole microseconds is [lo + 1, hi + 1)
        (gids,) = human_rows(store, [cid], lo_us + 1, hi_us + 1, columns=("global_ids",))
        seen.update(gids.tolist())
    return len(seen)


def hourly_average(
    store: RecordStore,
    group: int | str | None,
    t0: datetime,
    t1: datetime,
    location_map: LocationMap | None = None,
) -> HourlyProfile:
    """Mean distinct-person count per hour of day for a camera or location.

    Cell value for (date, h) is the number of distinct people the group saw
    during that hour; the profile mean averages cells over the dates whose
    hour lies fully inside [t0, t1).
    """
    t0_us, t1_us = to_us(t0), to_us(t1)
    if t0_us >= t1_us:
        raise InvertedRange(f"need t0 < t1, got {t0} .. {t1}")
    cameras = resolve_group(store, group, location_map)
    lo_hour = -(-t0_us // US_PER_HOUR)  # ceil: first fully covered hour
    hi_hour = t1_us // US_PER_HOUR
    profile = HourlyProfile()
    if hi_hour <= lo_hour:
        return profile
    _check_buckets(hi_hour - lo_hour, "hour cells")
    times, gids = human_rows(store, cameras, lo_hour * US_PER_HOUR, hi_hour * US_PER_HOUR)
    counts = distinct_counts(times, gids, lo_hour * US_PER_HOUR, US_PER_HOUR, hi_hour - lo_hour)
    hods = (np.arange(lo_hour, hi_hour, dtype=np.int64)) % 24
    sums = np.bincount(hods, weights=counts, minlength=24)
    cells = np.bincount(hods, minlength=24)
    for hod in range(24):
        if cells[hod]:
            profile.samples[hod] = int(cells[hod])
            profile.means[hod] = float(sums[hod] / cells[hod])
    return profile


def total_over_time(
    store: RecordStore,
    t0: datetime,
    t1: datetime,
    bucket: timedelta,
) -> list[tuple[datetime, int]]:
    """Cumulative distinct-person series from t0, one point per bucket.

    Both endpoints align down to the epoch-aligned bucket grid. The series
    is monotone nondecreasing and its final value is the distinct count over
    the whole range, independent of bucket size.
    """
    bucket_us = round(bucket.total_seconds() * 1_000_000)
    if bucket_us <= 0:
        raise ValueError("bucket must be positive")
    t0_us, t1_us = to_us(t0), to_us(t1)
    if t0_us > t1_us:
        raise InvertedRange(f"t0 {t0} is after t1 {t1}")
    t0_us = floor_to(t0_us, bucket_us)
    t1_us = floor_to(t1_us, bucket_us)
    n = (t1_us - t0_us) // bucket_us
    _check_buckets(n, "buckets")
    times, gids = human_rows(store, store.camera_ids(), t0_us, t1_us)
    order = np.argsort(times, kind="stable")
    times, gids = times[order], gids[order]
    _, first_pos = np.unique(gids, return_index=True)
    first_bucket = (times[first_pos] - t0_us) // bucket_us
    cumulative = np.cumsum(np.bincount(first_bucket, minlength=n)).astype(np.int64)
    return [
        (from_us(t0_us + i * bucket_us), int(cumulative[i]))
        for i in range(n)
    ]


def peak_hours(
    store: RecordStore,
    group: int | str | None,
    t0: datetime,
    t1: datetime,
    k: int,
    location_map: LocationMap | None = None,
) -> list[tuple[int, float]]:
    """Top-k hours of day by hourly mean, value descending then hour ascending."""
    if k < 1:
        raise ValueError("k must be at least 1")
    profile = hourly_average(store, group, t0, t1, location_map)
    ranked = sorted(profile.means.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
