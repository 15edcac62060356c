"""The reference kernel whose run time is the benchmark's unit of time ("ref")."""

from __future__ import annotations

import json
import time
from array import array
from datetime import datetime

# The kernel's time on the machine of the README's figures. setup_s is
# reported as set-up refs times this, i.e. in seconds of that machine.
NOMINAL_S = 0.14


class Reference:
    """A fixed CPU kernel, timed between calls: the machine's speed at that moment.

    On a shared machine the speed of the same code drifts by up to 2x within
    a minute. Dividing a call's time by the kernel's time cancels most of
    that drift and leaves the call's cost in units of the kernel ("ref").
    Like the CLI, the kernel parses JSON records and timestamps, appends to
    an array and formats output lines; it touches nothing under src/, so a
    change to svaa cannot move it.
    """

    def __init__(self):
        self.lines = [
            json.dumps({"record_time": f"2023-10-16T12:{i // 60 % 60:02d}:{i % 60:02d}.{i:06d}Z",
                        "camera_id": i % 8 + 1, "class_id": 0, "bbox": [i % 1900, i % 1000, 40, 100],
                        "local_id": i + 1, "global_id": 1_000_000 + i})
            for i in range(12_000)
        ]
        self.seconds()  # the first run warms caches

    def seconds(self) -> float:
        t = time.perf_counter()
        ids = array("q")
        out = []
        for line in self.lines:
            obj = json.loads(line)
            stamp = datetime.fromisoformat(obj["record_time"].replace("Z", "+00:00"))
            ids.append(obj["global_id"])
            out.append(f'{{"t":"{stamp.isoformat()}","c":{obj["camera_id"]},"v":{obj["bbox"][2] / 7:.9g}}}')
        return time.perf_counter() - t
