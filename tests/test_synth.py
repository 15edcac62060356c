"""Synthetic stream generator: determinism, ground truth, and rate laws."""

from __future__ import annotations

import hashlib
import json
from datetime import date, timedelta

import numpy as np
import pytest

from svaa.errors import InvalidProfile
from svaa.records import RecordStore, format_record, ingest_stream, parse_record
from svaa.synth import (
    DEFAULT_HOLIDAYS,
    DEFAULT_SPAN,
    CameraSim,
    SimProfile,
    default_profile,
    generate_lines,
    load_profile,
    profile_from_dict,
    write_stream,
)
from svaa.timeutil import date_to_day, is_weekend

from conftest import utc

T0 = utc(2023, 10, 16)
T1 = utc(2023, 10, 17)


def _records(profile, t0, t1) -> list:
    """The stream generate_lines emits, parsed."""
    return [parse_record(line) for line in generate_lines(profile, t0, t1)[0]]


def flat_profile(rate=60.0, seed=0, cameras=1, **kwargs):
    kwargs.setdefault("duration_range_s", (1.0, 2.0))
    kwargs.setdefault("emission_period_s", 5.0)
    return SimProfile(
        cameras=tuple(CameraSim(camera_id=i + 1, hourly_rate=(rate,) * 24) for i in range(cameras)),
        seed=seed,
        **kwargs,
    )


class TestValidation:
    def test_needs_cameras(self):
        with pytest.raises(InvalidProfile):
            SimProfile(cameras=())

    def test_unique_camera_ids(self):
        with pytest.raises(InvalidProfile):
            SimProfile(cameras=(CameraSim(1), CameraSim(1)))

    def test_rate_vector_length(self):
        with pytest.raises(InvalidProfile):
            CameraSim(1, hourly_rate=(1.0,) * 23)

    def test_negative_rate(self):
        with pytest.raises(InvalidProfile):
            CameraSim(1, hourly_rate=(-1.0,) + (0.0,) * 23)

    @pytest.mark.parametrize("kwargs", [
        dict(weekend_multiplier=1.5),
        dict(duration_range_s=(0.0, 5.0)),
        dict(duration_range_s=(5.0, 1.0)),
        dict(height_frac_range=(0.0, 0.5)),
        dict(height_frac_range=(0.2, 1.5)),
        dict(emission_period_s=0.0),
    ])
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(InvalidProfile):
            SimProfile(cameras=(CameraSim(1),), **kwargs)

    def test_inverted_span(self):
        with pytest.raises(InvalidProfile):
            generate_lines(flat_profile(), T1, T0)


# Release pin of the stream generate_lines emits for
# flat_profile(rate=12.0, seed=20231012) over [T0, T0 + 2 h): 25 lines.
# The stream rests on numpy's Generator/PCG64 draws (poisson, random,
# uniform), which numpy does not promise to keep across releases (NEP 19),
# so a numpy upgrade may change the digest. Recompute it with
#   PYTHONPATH=src:tests python -c "import hashlib, datetime as d, test_synth as t; ls, _ = t.generate_lines(t.flat_profile(rate=12.0, seed=20231012), t.T0, t.T0 + d.timedelta(hours=2)); print(hashlib.sha256(chr(10).join(ls).encode()).hexdigest())"
# and pin a new value only after re-checking the stream itself: the same
# digest from processes with different PYTHONHASHSEED values, every line
# round-tripping through parse_record/format_record, and the ground truth
# matching a recount.
# Never copy the value from a failing run alone.
GOLDEN_DIGEST = "07fe915f9cfa960aff2a0a857099eedda4a47408c7866be76aded1a661edfdd4"
GOLDEN_NUMPY = "2.4.6"  # numpy version the digest was taken under


class TestDeterminism:
    def test_zero_rate_empty_stream(self):
        lines, truth = generate_lines(flat_profile(rate=0.0), T0, T1)
        assert list(lines) == []
        assert truth.counts == {}

    def test_identical_runs_byte_identical(self):
        profile = flat_profile(rate=30.0, seed=11, cameras=2)
        lines_a, _ = generate_lines(profile, T0, T1)
        lines_b, _ = generate_lines(profile, T0, T1)
        digest_a = hashlib.sha256("\n".join(lines_a).encode()).hexdigest()
        digest_b = hashlib.sha256("\n".join(lines_b).encode()).hexdigest()
        assert digest_a == digest_b

    def test_first_record_stable(self):
        profile = flat_profile(rate=30.0, seed=11)
        first_a = next(iter(generate_lines(profile, T0, T1)[0]))
        first_b = next(iter(generate_lines(profile, T0, T1)[0]))
        assert first_a == first_b

    def test_seed_changes_stream(self):
        a, _ = generate_lines(flat_profile(rate=30.0, seed=1), T0, T1)
        b, _ = generate_lines(flat_profile(rate=30.0, seed=2), T0, T1)
        assert list(a) != list(b)

    def test_golden_stream_hash(self):
        # release pin for the shipped generator + numpy; see GOLDEN_DIGEST
        profile = flat_profile(rate=12.0, seed=20231012)
        lines, _ = generate_lines(profile, T0, T0 + timedelta(hours=2))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == GOLDEN_DIGEST, (
            f"golden stream digest changed: pinned under numpy {GOLDEN_NUMPY}, "
            f"running numpy {np.__version__}; re-check the stream before re-pinning"
        )


class TestStreamShape:
    def test_time_sorted_and_parseable(self):
        profile = default_profile(seed=3, rate_scale=0.05)
        lines = list(generate_lines(profile, *DEFAULT_SPAN)[0])
        records = [parse_record(line) for line in lines]
        assert [format_record(r) for r in records] == lines  # each line is in the canonical form
        times = [r.record_time for r in records]
        assert times == sorted(times)
        assert all(r.class_id == 0 for r in records)

    def test_bboxes_inside_frame(self):
        profile = flat_profile(rate=40.0, seed=5)
        records = _records(profile, T0, T1)
        cam = profile.cameras[0]
        for r in records:
            assert 0 <= r.bbox.x and r.bbox.x + r.bbox.w <= cam.width
            assert 0 <= r.bbox.y and r.bbox.y + r.bbox.h <= cam.height
            assert r.bbox.w > 0 and r.bbox.h > 0

    def test_global_ids_unique_across_cameras(self):
        profile = flat_profile(rate=20.0, seed=6, cameras=3)
        records = _records(profile, T0, T1)
        by_gid = {}
        for r in records:
            by_gid.setdefault(r.global_id, set()).add(r.camera_id)
        assert all(len(cams) == 1 for cams in by_gid.values())

    def test_stream_ingests_cleanly(self):
        profile = flat_profile(rate=20.0, seed=8)
        lines, _ = generate_lines(profile, T0, T1)
        store = RecordStore()
        report = ingest_stream(lines, store)
        assert report.rejected == 0
        assert report.accepted == len(store)


class TestGroundTruth:
    def test_matches_stream_recount(self):
        profile = default_profile(seed=9, rate_scale=0.05)
        lines, truth = generate_lines(profile, *DEFAULT_SPAN)
        records = [parse_record(line) for line in lines]
        recount: dict[tuple[int, date, int], set[int]] = {}
        for r in records:
            key = (r.camera_id, r.record_time.date(), r.record_time.hour)
            recount.setdefault(key, set()).add(r.global_id)
        assert {k: len(v) for k, v in recount.items()} == truth.counts

    def test_truth_csv_shape(self, tmp_path):
        profile = flat_profile(rate=10.0, seed=2)
        n = write_stream(profile, T0, T1, tmp_path / "r.jsonl", tmp_path / "t.csv")
        with (tmp_path / "r.jsonl").open() as fh:
            assert n == sum(1 for _ in fh)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "camera_id,date,hour,count"
        assert all(len(l.split(",")) == 4 for l in lines[1:])


class TestRateLaws:
    def test_poisson_rate_over_seeds(self):
        # flat 60/hour for 24h: mean distinct people over seeds within 5% of 1440
        totals = []
        for seed in range(10):
            records = _records(flat_profile(rate=60.0, seed=seed), T0, T1)
            totals.append(len({r.global_id for r in records}))
        mean = sum(totals) / len(totals)
        assert abs(mean - 1440) / 1440 < 0.05

    def test_weekend_multiplier_scales_arrivals(self):
        # Sat Oct 14 vs Mon Oct 16, same profile, multiplier 0.5
        sat0, mon0 = utc(2023, 10, 14), utc(2023, 10, 16)
        sat_totals, mon_totals = [], []
        for seed in range(8):
            profile = flat_profile(rate=60.0, seed=seed, weekend_multiplier=0.5)
            sat_records = _records(profile, sat0, sat0 + timedelta(days=1))
            mon_records = _records(profile, mon0, mon0 + timedelta(days=1))
            sat_totals.append(len({r.global_id for r in sat_records}))
            mon_totals.append(len({r.global_id for r in mon_records}))
        ratio = sum(sat_totals) / sum(mon_totals)
        assert 0.42 < ratio < 0.58

    def test_holidays_damped_like_weekends(self):
        profile = flat_profile(rate=60.0, seed=4, weekend_multiplier=0.25,
                               holidays=(date(2023, 10, 16),))
        records = _records(profile, T0, T1)  # Monday, but configured holiday
        distinct = len({r.global_id for r in records})
        assert distinct < 0.5 * 1440


class TestProfileIo:
    def test_round_trip(self, tmp_path):
        rates = [float(h) for h in range(24)]
        (tmp_path / "p.json").write_text(json.dumps({
            "seed": 77, "weekend_multiplier": 0.5, "duration_range_s": [3.0, 9.0], "height_frac_range": [0.1, 0.4],
            "emission_period_s": 1.0, "holidays": ["2023-10-12"],
            "cameras": [{"camera_id": 2, "width": 640, "height": 480, "hourly_rate": rates},
                        {"camera_id": 5, "hourly_rate": [1.0] * 24}],
        }))
        assert load_profile(tmp_path / "p.json") == SimProfile(
            cameras=(CameraSim(2, 640, 480, tuple(rates)), CameraSim(5, hourly_rate=(1.0,) * 24)),
            weekend_multiplier=0.5, duration_range_s=(3.0, 9.0), height_frac_range=(0.1, 0.4),
            emission_period_s=1.0, holidays=(date(2023, 10, 12),), seed=77,
        )

    def test_default_profile_shape(self):
        profile = default_profile()
        assert len(profile.cameras) == 8
        assert profile.holidays == DEFAULT_HOLIDAYS
        span_days = (DEFAULT_SPAN[1] - DEFAULT_SPAN[0]).days
        assert span_days == 8
        # the default span covers 4 working days and 4 weekend-or-holiday days
        holidays = profile.holiday_days()
        working = sum(
            0 if (is_weekend(d) or d in holidays) else 1
            for d in range(date_to_day(DEFAULT_SPAN[0].date()), date_to_day(DEFAULT_SPAN[1].date()))
        )
        assert working == 4

    def test_bad_profile_document(self, tmp_path):
        (tmp_path / "p.json").write_text("{\"cameras\": [{}]}")
        with pytest.raises(InvalidProfile):
            load_profile(tmp_path / "p.json")

