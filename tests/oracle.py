"""The scalar per-window replay loops: the differential oracle for the columnar kernels.

These are the loops `occupancy` and `anomaly` ran before their kernels
became columnar: a bounded FIFO multiset with a live value histogram per
bucket (BucketSamples, classify_occupancy) and Welford's running moments
per bucket (MomentAccumulator, AnomalyStats). `replay_levels` and
`replay_verdicts` drive them over a count series window by window, as the
replays did.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from svaa import anomaly, occupancy
from svaa.anomaly import AnomalyVerdict
from svaa.errors import EmptyHistory
from svaa.occupancy import DEFAULT_CAPACITY, BucketKey, Level, OccupancyLevel


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


def classify_occupancy(
    count: int,
    samples: BucketSamples | Iterable[int],
    min_samples: int = occupancy.DEFAULT_MIN_SAMPLES,
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

    def check(self, count: int, min_samples: int = anomaly.DEFAULT_MIN_SAMPLES) -> AnomalyVerdict:
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

    def check(self, key: BucketKey, count: int, min_samples: int = anomaly.DEFAULT_MIN_SAMPLES) -> AnomalyVerdict:
        """Evaluate a count against the bucket's stats before absorbing it (see MomentAccumulator.check)."""
        acc = self._buckets.get(key)
        return (acc if acc is not None else MomentAccumulator()).check(count, min_samples)


def replay_levels(counts, slots, capacity: int = DEFAULT_CAPACITY,
                  min_samples: int = occupancy.DEFAULT_MIN_SAMPLES) -> list[OccupancyLevel]:
    """Classify each window against its slot's history so far, then add it."""
    histories: dict[int, BucketSamples] = {}
    out = []
    for count, slot in zip(counts, slots):
        samples = histories.setdefault(slot, BucketSamples(capacity))
        out.append(classify_occupancy(count, samples, min_samples))
        samples.add(count)
    return out


def replay_verdicts(counts, slots, min_samples: int = anomaly.DEFAULT_MIN_SAMPLES) -> list[AnomalyVerdict]:
    """Check each window against its slot's moments so far, then absorb it if nonzero."""
    moments: dict[int, MomentAccumulator] = {}
    out = []
    for count, slot in zip(counts, slots):
        acc = moments.setdefault(slot, MomentAccumulator())
        out.append(acc.check(count, min_samples))
        if count > 0:
            acc.add(count)
    return out
