"""Statistical surge detection on 5-second counts via running moments.

Each (camera, hour-of-day, day-class) bucket accumulates a running mean and
sum of squared deviations over the *nonzero* interval counts it has seen;
zero windows never touch the moments, since empty windows dominate raw
streams and would drag the mean toward zero. A count is flagged when it
exceeds the bucket mean by more than two sample standard deviations, one
sided: only surges are anomalies.

The buckets are occupancy's bucket frame: the same default replay range,
the same hour_of_day * 2 + weekend_or_holiday slot rule and the same 48
keys per camera, so both replays read the same counts in the same buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator

from .occupancy import BucketKey, bucket_keys, bucket_slot, replay_span
from .records import RecordStore, window_count_series
from .timeutil import from_us

DEFAULT_MIN_SAMPLES = 30  # nonzero samples required before flagging


@dataclass(slots=True)
class MomentAccumulator:
    """Single-pass (Welford) running mean and squared-deviation sum."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        """Sample standard deviation; 0.0 below two samples."""
        if self.n < 2:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / (self.n - 1))

    def check(self, count: int, min_samples: int = DEFAULT_MIN_SAMPLES) -> AnomalyVerdict:
        """Evaluate a count against these moments before it is absorbed.

        Flags when count > mean + 2*std with enough history; a constant
        history (std 0) therefore flags any count strictly above its mean.
        The z-score is reported as 0 when std is 0.
        """
        std = self.std
        insufficient = self.n < min_samples
        z = (count - self.mean) / std if std > 0 else 0.0
        flagged = not insufficient and count > self.mean + 2.0 * std
        return AnomalyVerdict(flagged, z, self.mean, std, self.n, insufficient)


@dataclass(frozen=True, slots=True)
class AnomalyVerdict:
    is_anomaly: bool
    z_score: float
    mean: float
    std: float
    n: int
    insufficient_data: bool


class AnomalyStats:
    """Per-bucket moment accumulators, updated from nonzero counts only."""

    def __init__(self):
        self._buckets: dict[BucketKey, MomentAccumulator] = {}

    def bucket(self, key: BucketKey) -> MomentAccumulator:
        acc = self._buckets.get(key)
        if acc is None:
            acc = MomentAccumulator()
            self._buckets[key] = acc
        return acc

    def update(self, key: BucketKey, count: int) -> None:
        """Absorb one interval count; zero counts leave the stats unchanged."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return
        self.bucket(key).add(count)

    def check(self, key: BucketKey, count: int, min_samples: int = DEFAULT_MIN_SAMPLES) -> AnomalyVerdict:
        """Evaluate a count against the bucket's stats before absorbing it (see MomentAccumulator.check)."""
        acc = self._buckets.get(key)
        return (acc if acc is not None else MomentAccumulator()).check(count, min_samples)


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
    """Check every 5-second window of one camera in time order.

    Each window is evaluated against its bucket's moments as accumulated so
    far, then (if nonzero) absorbed into them. Bounds default to the
    camera's data extent.
    """
    span = replay_span(store, camera_id, t0, t1)
    if span is None:
        return
    starts, counts = window_count_series(store, camera_id, *span)
    keys = bucket_keys(camera_id)
    moments = [MomentAccumulator() for _ in keys]
    for start, slot, count in zip(starts.tolist(), bucket_slot(starts, holidays).tolist(), counts.tolist()):
        acc = moments[slot]
        verdict = acc.check(count, min_samples)
        if count > 0:
            acc.add(count)
        yield AnomalyObservation(camera_id, from_us(start), count, verdict, keys[slot])
