"""Surveillance video analytics aggregator.

Turns raw multi-camera detection metadata (timestamps, bounding boxes,
global person IDs) into descriptive metrics and situational-awareness
products: occupancy classification, statistical anomaly flags, bird's-eye
ground-plane coordinates, and smoothed spatial heatmaps.
"""

__version__ = "0.1.0"

from .records import (
    BoundingBox,
    DetectionRecord,
    IngestReport,
    RecordStore,
    ingest_stream,
    parse_record,
)

__all__ = [
    "BoundingBox",
    "DetectionRecord",
    "IngestReport",
    "RecordStore",
    "ingest_stream",
    "parse_record",
    "__version__",
]
