"""The record schema as objects: one stored detection, parsed from and written back to its line.

No command reads a record as an object: ingest and the store keep columns.
The tests use these to state the line format, and `parse_record` validates
through `records._parse_fields`, the per-line parser ingest uses, so a
property over `parse_record` tests the real parser. `format_record` writes
a record without extras in the canonical shape, the one the generator
writes and the batch decoder reads in columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime

from svaa import records, timeutil
from svaa.timeutil import from_us, to_us


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel box: top-left corner plus width and height."""

    x: float
    y: float
    w: float
    h: float


@dataclass(slots=True)
class DetectionRecord:
    """One stored detection: who (ids), where (camera, box), and when."""

    record_time: datetime
    camera_id: int
    class_id: int
    bbox: BoundingBox
    local_id: int
    global_id: int
    feature: str | None = None  # opaque blob, kept only in the stored JSONL line
    batch_id: object | None = None  # upstream tag, kept only in the stored JSONL line

    @property
    def time_us(self) -> int:
        return to_us(self.record_time)


def parse_record(line: str) -> DetectionRecord:
    """Parse one serialized record line, validating the schema.

    Raises MalformedLine for structural problems, InvalidTimestamp for a bad
    record_time, and InvalidBBox for a degenerate box. The optional feature
    blob is retained unmodified; an optional batch_id is kept but ignored.
    """
    time_us, camera_id, class_id, x, y, w, h, local_id, global_id, feature, batch_id = records._parse_fields(line)
    return DetectionRecord(from_us(time_us), camera_id, class_id, BoundingBox(x, y, w, h), local_id, global_id,
                           feature, batch_id)


def _format_pixel(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def format_record(rec: DetectionRecord) -> str:
    """Serialize a record back to the canonical one-line form."""
    bbox = ",".join(_format_pixel(v) for v in (rec.bbox.x, rec.bbox.y, rec.bbox.w, rec.bbox.h))
    parts = [
        f'"record_time":"{timeutil.format_rfc3339(rec.time_us)}"',
        f'"camera_id":{rec.camera_id}',
        f'"class_id":{rec.class_id}',
        f'"bbox":[{bbox}]',
        f'"local_id":{rec.local_id}',
        f'"global_id":{rec.global_id}',
    ]
    if rec.feature is not None:
        parts.append(f'"feature":{json.dumps(rec.feature)}')
    if rec.batch_id is not None:
        parts.append(f'"batch_id":{json.dumps(rec.batch_id)}')
    return "{" + ",".join(parts) + "}"
