"""Statistical surge detection on 5-second counts via prior moments.

Each (camera, hour-of-day, day-class) bucket keeps the count n, sum S and
sum of squares Q of the *nonzero* interval counts it has seen; zero windows
never touch the moments, since empty windows dominate raw streams and would
drag the mean toward zero. A count is flagged when it exceeds the bucket
mean by more than two sample standard deviations, one sided: only surges
are anomalies. With d = count*n - S the flag is decided in exact integers:
d > 0 and d^2 (n - 1) > 4 n (n Q - S^2), the closed form of Welford's
running moments (Chan, Golub and LeVeque 1979). The printed mean is S/n,
correctly rounded. A per-window Welford loop, used before, accumulated
rounding error instead: on busy streams a few printed means differ from it
in the 9th significant digit; the flags agree.

The buckets are occupancy's bucket frame (`bucket_series`, `slot_rows`):
the same default replay range,
the same hour_of_day * 2 + weekend_or_holiday slot rule and the same 48
keys per camera, so both replays read the same counts in the same buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, NamedTuple

import numpy as np

from .occupancy import BucketKey, bucket_keys, bucket_series, slot_rows
from .records import RecordStore, window_count_series
from .timeutil import from_us, to_us

DEFAULT_MIN_SAMPLES = 30  # nonzero samples required before flagging

# Products of the rule stay below this bound where int64 is exact; the
# bound is checked in float64, which leaves a factor of two for its rounding.
_INT64_SAFE = 2.0 ** 62


def prefix_moments(counts: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, S and Q of the nonzero counts before each window in its bucket slot.

    int64, or Python ints (object arrays) for S and Q when a sum of squares
    could pass the int64 range.
    """
    exact = len(counts) * float(counts.max(initial=0)) ** 2 >= _INT64_SAFE
    x = counts.astype(object if exact else np.int64, copy=False)
    n = np.zeros(len(x), dtype=np.int64)
    s, q = np.zeros_like(x), np.zeros_like(x)
    for rows in slot_rows(slots):
        xs = x[rows]
        for column, terms in ((n, xs > 0), (s, xs), (q, xs * xs)):
            column[rows] = np.cumsum(terms) - terms
    return n, s, q


def _closed_form(x, n, s, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Surge flag, mean and variance per window, the flag in the integers of the inputs' dtype."""
    d = np.where(n > 0, x * n - s, x)  # n * (count - mean); with no history the mean is 0
    m2n = n * q - s * s  # n * sum of squared deviations
    flag = (d > 0) & ((n < 2) | (d * d * (n - 1) > 4 * n * m2n))
    mean = (s / np.maximum(n, 1)).astype(np.float64)
    var = (m2n / np.maximum(n * (n - 1), 1)).astype(np.float64)
    return flag, mean, var


def verdicts(counts: np.ndarray, n: np.ndarray, s: np.ndarray, q: np.ndarray,
             min_samples: int = DEFAULT_MIN_SAMPLES) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flag, mean, std and z-score of each window against its prior moments.

    Flags need n >= min_samples and count > mean + 2*std, decided exactly;
    a constant history (std 0) therefore flags any count strictly above its
    mean. The z-score is 0 when std is 0. Rows whose int64 products could
    wrap are decided again in Python ints.
    """
    flag, mean, var = _closed_form(counts, n, s, q)
    nf = n.astype(np.float64)
    wide = np.flatnonzero((4 * nf * nf * q.astype(np.float64) >= _INT64_SAFE)
                          | ((counts * nf - s.astype(np.float64)) ** 2 * nf >= _INT64_SAFE))
    if wide.size:
        flag[wide], mean[wide], var[wide] = _closed_form(*(a[wide].astype(object) for a in (counts, n, s, q)))
    std = np.sqrt(var)
    z = np.divide(counts - mean, std, out=np.zeros(len(std)), where=std > 0)
    return flag & (n >= min_samples), mean, std, z


class Moments(NamedTuple):
    """A replay's windows as columns, in time order: each window's count and its bucket's prior moments."""

    starts: np.ndarray  # window starts, epoch microseconds
    counts: np.ndarray
    slots: np.ndarray  # bucket slots, see occupancy.bucket_slot
    n: np.ndarray
    s: np.ndarray
    q: np.ndarray


def moments(store: RecordStore, camera_id: int, *, holidays: frozenset[int] = frozenset(),
            t0_us: int | None = None, t1_us: int | None = None) -> Moments | None:
    """Every 5-second window of one camera in [t0, t1) with its bucket's prior moments.

    None when there is nothing to replay. Bounds default to the camera's
    data extent.
    """
    frame = bucket_series(store, camera_id, t0_us, t1_us, holidays, series=window_count_series)
    if frame is None:
        return None
    return Moments(*frame, *prefix_moments(*frame[1:]))


@dataclass(frozen=True, slots=True)
class AnomalyVerdict:
    is_anomaly: bool
    z_score: float
    mean: float
    std: float
    n: int
    insufficient_data: bool


@dataclass(frozen=True, slots=True)
class AnomalyObservation:
    camera_id: int
    window_start: datetime
    count: int
    verdict: AnomalyVerdict
    bucket: BucketKey


def replay(
    store: RecordStore,
    camera_id: int,
    *,
    holidays: frozenset[int] = frozenset(),
    t0: datetime | None = None,
    t1: datetime | None = None,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> Iterator[AnomalyObservation]:
    """moments() and verdicts() as one observation per window, in time order."""
    series = moments(store, camera_id, holidays=holidays, t0_us=None if t0 is None else to_us(t0),
                     t1_us=None if t1 is None else to_us(t1))
    if series is None:
        return
    keys = bucket_keys(camera_id)
    flag, mean, std, z = verdicts(series.counts, series.n, series.s, series.q, min_samples)
    for start, count, slot, n, *verdict in zip(
        *(column.tolist() for column in (series.starts, series.counts, series.slots, series.n, flag, z, mean, std))
    ):
        yield AnomalyObservation(camera_id, from_us(start), count,
                                 AnomalyVerdict(*verdict, n, n < min_samples), keys[slot])
