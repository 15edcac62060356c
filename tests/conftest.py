"""Shared test fixtures and record builders."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from svaa.records import RecordStore, ingest_stream


def utc(*args: int) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def make_line(
    record_time: str = "2023-10-16T09:00:00Z",
    camera_id: int = 1,
    class_id: int = 0,
    bbox: tuple = (10, 20, 50, 100),
    local_id: int = 1,
    global_id: int = 1001,
    **extra,
) -> str:
    import json

    obj = {
        "record_time": record_time,
        "camera_id": camera_id,
        "class_id": class_id,
        "bbox": list(bbox),
        "local_id": local_id,
        "global_id": global_id,
    }
    obj.update(extra)
    return json.dumps(obj, separators=(",", ":"))


def store_from_lines(lines) -> RecordStore:
    """A memory store holding every line, each of which must be valid."""
    store = RecordStore()
    report = ingest_stream(lines, store)
    assert report.rejected == 0
    return store


@pytest.fixture
def mem_store() -> RecordStore:
    return RecordStore()
