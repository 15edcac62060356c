"""UTC time helpers.

All analytics run on integer microseconds since the Unix epoch; datetimes
appear only at API boundaries. The 5-second analytics grid is aligned to
the epoch, so bucketing is reproducible regardless of data arrival.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from typing import Iterator

from .errors import InvalidTimestamp

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US_PER_SECOND = 1_000_000
US_PER_HOUR = 3600 * US_PER_SECOND
US_PER_DAY = 24 * US_PER_HOUR
WINDOW_US = 5 * US_PER_SECOND

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def to_us(dt: datetime) -> int:
    """Convert a datetime to epoch microseconds (naive values read as UTC)."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif dt.utcoffset():
        dt = dt.astimezone(timezone.utc)
    days = dt.toordinal() - _EPOCH_ORDINAL
    seconds = days * 86_400 + dt.hour * 3600 + dt.minute * 60 + dt.second
    return seconds * US_PER_SECOND + dt.microsecond


def from_us(us: int) -> datetime:
    return EPOCH + timedelta(microseconds=int(us))


# YYYY-MM-DD[Tt ]HH:MM:SS[.digits][Z|z|+HH:MM|-HH:MM]. The calendar and clock
# ranges are left to fromisoformat, which alone would also take a bare date,
# the basic and week-date forms, truncated times and offsets without a colon.
_RFC3339 = re.compile(r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d(?:\.\d+)?(?:[Zz]|[+-]\d\d:\d\d)?", re.ASCII)


def parse_rfc3339(text: str) -> int:
    """Parse an RFC 3339 timestamp to epoch microseconds.

    Accepts 'Z' or numeric +HH:MM/-HH:MM offsets and any number of
    fractional-second digits after a '.'; a naive timestamp is interpreted
    as UTC. Anything else, such as a bare date, is an InvalidTimestamp.
    """
    if not isinstance(text, str):
        raise InvalidTimestamp(f"timestamp must be a string, got {type(text).__name__}")
    cleaned = text.strip()
    if not _RFC3339.fullmatch(cleaned):
        raise InvalidTimestamp(f"not an RFC 3339 timestamp {text!r}")
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise InvalidTimestamp(f"unparseable timestamp {text!r}") from exc
    try:
        return to_us(dt)
    except OverflowError as exc:  # the offset moves the instant past year 1 or 9999
        raise InvalidTimestamp(f"timestamp out of range {text!r}") from exc


@lru_cache
def _date_text(day: int) -> str:
    return day_to_date(day).isoformat()


@lru_cache(maxsize=1)
def _times_of_day() -> list[str]:
    """The "THH:MM:SSZ" text of each 5-second window of a day."""
    return [f"T{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}Z" for s in range(0, 86_400, WINDOW_US // US_PER_SECOND)]


def window_days(starts) -> Iterator[tuple[int, int, str, list[str]]]:
    """Split a run of consecutive 5-second window starts, on the grid, at each UTC midnight.

    Yields (lo, hi, date, times) per day: starts[lo:hi] fall on that day and
    date + times[i] == format_rfc3339(starts[lo + i]).
    """
    if not len(starts):
        return
    table = _times_of_day()
    day, k = divmod(int(starts[0]) // WINDOW_US, len(table))
    lo = 0
    while lo < len(starts):
        hi = min(len(starts), lo + len(table) - k)
        yield lo, hi, _date_text(day), table[k:k + hi - lo]
        lo, day, k = hi, day + 1, 0


def format_rfc3339(us: int) -> str:
    """Render epoch microseconds as RFC 3339 UTC.

    The fractional second is emitted as exactly six digits when nonzero and
    omitted when zero; both forms parse back losslessly.
    """
    day, rem = divmod(int(us), US_PER_DAY)
    sec, micro = divmod(rem, US_PER_SECOND)
    hh, rest = divmod(sec, 3600)
    mm, ss = divmod(rest, 60)
    if micro:
        return f"{_date_text(day)}T{hh:02d}:{mm:02d}:{ss:02d}.{micro:06d}Z"
    return f"{_date_text(day)}T{hh:02d}:{mm:02d}:{ss:02d}Z"


def parse_date_utc(text: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError as exc:
        raise InvalidTimestamp(f"unparseable date {text!r}") from exc


def floor_to(us: int, step_us: int) -> int:
    return (us // step_us) * step_us


def window_start(us: int) -> int:
    """Align a timestamp down to the epoch-aligned 5-second grid."""
    return (us // WINDOW_US) * WINDOW_US


def hour_of_day(us: int) -> int:
    return (us % US_PER_DAY) // US_PER_HOUR


def epoch_day(us: int) -> int:
    return us // US_PER_DAY


def day_to_date(day: int) -> date:
    return date.fromordinal(day + _EPOCH_ORDINAL)


def date_to_day(d: date) -> int:
    return d.toordinal() - _EPOCH_ORDINAL


def is_weekend(day: int) -> bool:
    # epoch day 0 (1970-01-01) was a Thursday
    return (day + 3) % 7 >= 5
