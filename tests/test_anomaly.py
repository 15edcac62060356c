"""Zero-excluding running moments and the two-sigma surge rule."""

from __future__ import annotations

import math
from fractions import Fraction
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svaa.anomaly import prefix_moments, replay, verdicts
from svaa.occupancy import BucketKey, DayClass
from svaa.timeutil import format_rfc3339, to_us

from conftest import make_line, store_from_lines, utc
from oracle import AnomalyStats, replay_verdicts

KEY = BucketKey(1, 9, DayClass.WEEKDAY)


def two_pass(values):
    """Textbook two-pass mean and sample std."""
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean()
    if len(arr) < 2:
        return float(mean), 0.0
    return float(mean), float(math.sqrt(((arr - mean) ** 2).sum() / (len(arr) - 1)))


def feed(values, stats=None):
    stats = stats or AnomalyStats()
    for v in values:
        stats.update(KEY, v)
    return stats


class TestMoments:
    def test_hand_arithmetic(self):
        stats = feed([1, 2, 3])
        acc = stats.bucket(KEY)
        assert acc.mean == pytest.approx(2.0)
        assert acc.std == pytest.approx(1.0)
        assert acc.n == 3

    def test_zeros_never_enter(self):
        with_zeros = feed([1, 0, 2, 0, 3]).bucket(KEY)
        without = feed([1, 2, 3]).bucket(KEY)
        assert (with_zeros.n, with_zeros.mean, with_zeros.m2) == (without.n, without.mean, without.m2)

    def test_single_sample_std_zero(self):
        acc = feed([5]).bucket(KEY)
        assert acc.std == 0.0

    def test_random_streams_match_two_pass(self):
        rng = random.Random(9)
        for _ in range(40):
            values = [rng.randrange(1, 10**6) for _ in range(rng.randrange(2, 4000))]
            acc = feed(values).bucket(KEY)
            mean, std = two_pass(values)
            assert acc.mean == pytest.approx(mean, rel=1e-9)
            assert acc.std == pytest.approx(std, rel=1e-9)


@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=2000), st.randoms())
@settings(max_examples=50, deadline=None)
def test_permutation_robust_accuracy(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    acc = feed(shuffled).bucket(KEY)
    mean, std = two_pass(values)
    assert acc.mean == pytest.approx(mean, rel=1e-9)
    assert acc.std == pytest.approx(std, rel=1e-9, abs=1e-9)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=300),
       st.lists(st.integers(0, 30), min_size=0, max_size=50))
def test_zero_interleaving_neutrality(values, zero_positions):
    plain = feed([v for v in values if v > 0]).bucket(KEY)
    padded = list(values)
    for pos in zero_positions:
        padded.insert(pos % (len(padded) + 1), 0)
    mixed = feed([v for v in padded]).bucket(KEY)
    nonzero = [v for v in values if v > 0]
    assert mixed.n == len(nonzero)
    assert mixed.mean == plain.mean
    assert mixed.m2 == plain.m2


class TestVerdict:
    def _stats(self, n=33, mean=2.0, std=1.0):
        stats = AnomalyStats()
        acc = stats.bucket(KEY)
        acc.n = n
        acc.mean = mean
        acc.m2 = std * std * (n - 1)
        return stats

    def test_surge_flags(self):
        verdict = self._stats().check(KEY, 5)
        assert verdict.is_anomaly
        assert verdict.z_score == pytest.approx(3.0)

    def test_at_mean_not_anomalous(self):
        verdict = self._stats().check(KEY, 2)
        assert not verdict.is_anomaly
        assert verdict.z_score == pytest.approx(0.0)

    def test_streamed_surge(self):
        # 16 ones, 16 threes, one two: mean 2, sample std exactly 1
        stats = feed([1, 3] * 16 + [2])
        verdict = stats.check(KEY, 5)
        assert verdict.n == 33
        assert verdict.mean == pytest.approx(2.0)
        assert verdict.std == pytest.approx(1.0)
        assert verdict.is_anomaly and verdict.z_score == pytest.approx(3.0)

    def test_insufficient_history(self):
        stats = feed([1, 3] * 10)  # 20 < 30 samples
        verdict = stats.check(KEY, 50)
        assert verdict.insufficient_data and not verdict.is_anomaly

    def test_check_precedes_absorb(self):
        stats = self._stats()
        before = stats.check(KEY, 5)
        stats.update(KEY, 5)
        after = stats.check(KEY, 5)
        assert before.mean < after.mean
        assert before.n + 1 == after.n

    def test_constant_history_flags_any_excess(self):
        stats = feed([2] * 40)
        acc = stats.bucket(KEY)
        assert acc.std == pytest.approx(0.0)
        assert stats.check(KEY, 3).is_anomaly
        assert not stats.check(KEY, 2).is_anomaly
        assert stats.check(KEY, 3).z_score == 0.0  # z reported 0 when std is 0

    def test_unseen_bucket(self):
        verdict = AnomalyStats().check(KEY, 4)
        assert verdict.insufficient_data and not verdict.is_anomaly and verdict.n == 0


@given(st.lists(st.integers(1, 40), min_size=30, max_size=300), st.integers(0, 60))
def test_one_sided_rule(history, count):
    stats = feed(history)
    acc = stats.bucket(KEY)
    if count <= acc.mean:
        assert not stats.check(KEY, count).is_anomaly


@given(st.lists(st.integers(1, 40), min_size=30, max_size=300), st.integers(0, 200))
def test_flag_equals_z_above_two(history, count):
    stats = feed(history)
    acc = stats.bucket(KEY)
    assume(acc.std > 0)
    assume(abs(count - (acc.mean + 2 * acc.std)) > 1e-9)  # off the knife edge
    verdict = stats.check(KEY, count)
    assert verdict.is_anomaly == (verdict.z_score > 2)


class TestZeroExclusionScenario:
    """Constructed stream where the zero-handling choice flips the verdict."""

    STREAM = [0] * 100 + [1] * 20 + [2] * 15 + [3] * 10

    def test_inclusion_would_flag_three(self):
        mean, std = two_pass(self.STREAM)
        assert 0 < mean < 1
        assert 3 > mean + 2 * std  # a zero-including detector would flag

    def test_exclusion_does_not_flag_three(self):
        rng = random.Random(4)
        shuffled = list(self.STREAM)
        rng.shuffle(shuffled)
        stats = feed(shuffled)
        acc = stats.bucket(KEY)
        assert 1 < acc.mean < 2
        mean, std = two_pass([v for v in self.STREAM if v > 0])
        assert acc.mean == pytest.approx(mean, rel=1e-12)
        assert acc.std == pytest.approx(std, rel=1e-12)
        verdict = stats.check(KEY, 3)
        assert not verdict.is_anomaly


class TestReplay:
    def test_csv_fields_and_ordering(self):
        rng = random.Random(2)
        base = to_us(utc(2023, 10, 16, 9))
        lines = [
            make_line(record_time=format_rfc3339(base + rng.randrange(0, 600) * 1_000_000),
                      global_id=rng.randrange(1, 9), local_id=i + 1)
            for i in range(200)
        ]
        store = store_from_lines(lines)
        observations = list(replay(store, 1, t0=utc(2023, 10, 16, 9), t1=utc(2023, 10, 16, 9, 10)))
        assert len(observations) == 120
        starts = [obs.window_start for obs in observations]
        assert starts == sorted(starts)

    def test_replay_verdicts_use_prior_state(self):
        # stats at each step must match an oracle fed the same prefix
        rng = random.Random(6)
        base = to_us(utc(2023, 10, 16, 9))
        lines = [
            make_line(record_time=format_rfc3339(base + rng.randrange(0, 600) * 1_000_000),
                      global_id=rng.randrange(1, 6), local_id=i + 1)
            for i in range(150)
        ]
        store = store_from_lines(lines)
        prefix: list[int] = []
        for obs in replay(store, 1, t0=utc(2023, 10, 16, 9), t1=utc(2023, 10, 16, 9, 10), min_samples=5):
            nonzero = [v for v in prefix if v > 0]
            if nonzero:
                mean, std = two_pass(nonzero)
                assert obs.verdict.mean == pytest.approx(mean, rel=1e-12)
                assert obs.verdict.std == pytest.approx(std, rel=1e-9, abs=1e-12)
            assert obs.verdict.n == len(nonzero)
            prefix.append(obs.count)


def exact_verdicts(counts, slots, min_samples):
    """Per window: count > mean + 2*std over its slot's prior nonzero counts, in exact rationals, and n, S, Q."""
    sums: dict[int, tuple[int, int, int]] = {}
    out = []
    for count, slot in zip(counts, slots):
        n, s, q = sums.get(slot, (0, 0, 0))
        mean = Fraction(s, n) if n else Fraction(0)
        var = Fraction(n * q - s * s, n * (n - 1)) if n > 1 else Fraction(0)
        out.append((n >= min_samples and count > mean and (count - mean) ** 2 > 4 * var, n, s, q))
        if count:
            sums[slot] = (n + 1, s + count, q + count * count)
    return out


def kernel(counts, slots, min_samples):
    counts = np.array(counts, dtype=np.int64)
    n, s, q = prefix_moments(counts, np.array(slots, dtype=np.int64))
    return verdicts(counts, n, s, q, min_samples)


@st.composite
def surge_streams(draw, top=60):
    n = draw(st.integers(0, 150))
    counts = draw(st.lists(st.integers(-top // 2, top).map(lambda v: max(v, 0)), min_size=n, max_size=n))  # a third zeros
    slots = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    near = max(n // 6, 0)
    min_samples = draw(st.integers(max(near - 3, 0), near + 3) | st.integers(0, 40))
    return counts, slots, min_samples


@given(surge_streams())
@settings(max_examples=150, deadline=None)
def test_kernel_flags_are_the_exact_rule_and_moments_are_welfords(stream):
    counts, slots, min_samples = stream
    flag, mean, std, z = kernel(counts, slots, min_samples)
    assert flag.tolist() == [want[0] for want in exact_verdicts(counts, slots, min_samples)]
    for got_mean, got_std, got_z, want in zip(mean.tolist(), std.tolist(), z.tolist(),
                                              replay_verdicts(counts, slots, min_samples)):
        assert math.isclose(got_mean, want.mean, rel_tol=1e-12)
        assert math.isclose(got_std, want.std, rel_tol=1e-12)
        assert math.isclose(got_z, want.z_score, rel_tol=1e-9, abs_tol=1e-9)


@given(st.sampled_from((10**8, 10**12)).flatmap(lambda top: surge_streams(top=top)))
@settings(max_examples=100, deadline=None)
def test_counts_past_the_int64_bound_are_decided_exactly(stream):
    counts, slots, min_samples = stream
    flag, mean, std, _ = kernel(counts, slots, min_samples)
    want = exact_verdicts(counts, slots, min_samples)
    assert flag.tolist() == [w[0] for w in want]
    for got_mean, got_std, (_, n, s, q) in zip(mean.tolist(), std.tolist(), want):
        assert got_mean == (s / n if n else 0.0)  # Python's int / int is correctly rounded
        assert math.isclose(got_std, math.sqrt((n * q - s * s) / (n * (n - 1))) if n > 1 else 0.0, rel_tol=1e-12)


class TestBound:
    """Both exact paths: a row past the int64 product bound, and sums of squares past int64."""

    def test_products_past_the_bound(self):
        # 31 counts of 10**7 and 10**7 + 1, then two surges; d^2 (n - 1) of the 3e8 one is ~3e21, past int64
        counts = [10**7, 10**7 + 1] * 15 + [10**7] + [10**7 + 2, 3 * 10**8]
        n, s, q = prefix_moments(np.array(counts, dtype=np.int64), np.zeros(len(counts), dtype=np.int64))
        assert q.dtype == np.int64  # the sums fit: only the rule's products do not
        flag, _, _, _ = kernel(counts, [0] * len(counts), 30)
        assert flag.tolist() == [want[0] for want in exact_verdicts(counts, [0] * len(counts), 30)]
        assert flag[-2:].tolist() == [True, True]  # mean 10**7 + 15/31, std about 0.51

    def test_sums_of_squares_past_int64(self):
        counts = [3 * 10**9, 3 * 10**9 + 1, 3 * 10**9 + 2, 3 * 10**9 + 9]
        n, s, q = prefix_moments(np.array(counts, dtype=np.int64), np.zeros(4, dtype=np.int64))
        assert q.dtype == object and q[-1] == sum(c * c for c in counts[:3])
        flag, mean, _, _ = kernel(counts, [0] * 4, 3)
        assert flag.tolist() == [False, False, False, True]
        assert mean[-1] == 3 * 10**9 + 1
