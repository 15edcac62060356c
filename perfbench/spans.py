"""In-memory spans around the calls that `svaa.cli` makes into each module.

Tracing patches the module attributes that the CLI resolves at call time
(`cli.RecordStore`, `occupancy.replay`, `metrics.hourly_average`, ...), so
nothing under `src/` knows it is being traced. Every span records its name,
its parent, the benchmark operation it belongs to, its duration and its
counts. A replay generator's span covers only the time spent inside its
`next()` calls, so the CLI's formatting between windows stays in the
caller's self time. Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "id", "parent", "op", "dur", "child", "counts")

    def __init__(self, name: str, span_id: int, parent: int | None, op: str | None):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.op = op
        self.dur = 0.0  # seconds, summed over the span's segments
        self.child = 0.0  # seconds covered by child spans
        self.counts: dict[str, int] = {}

    def to_dict(self) -> dict:
        return {
            "name": self.name, "id": self.id, "parent": self.parent, "op": self.op,
            "dur_s": self.dur, "self_s": self.dur - self.child, "counts": self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._op: str | None = None
        self._indexed: set[tuple[int, int]] = set()

    def start_op(self, label: str) -> None:
        """Tag the spans that follow with one benchmark operation."""
        self._op = label
        self._indexed.clear()

    def _new(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(name, self._next_id, parent, self._op)
        self._next_id += 1
        return span

    def _exit(self, span: Span, t: float) -> None:
        d = time.perf_counter() - t
        self._stack.pop()
        span.dur += d
        if self._stack:
            self._stack[-1].child += d

    @contextmanager
    def span(self, name: str):
        span = self._new(name)
        self._stack.append(span)
        t = time.perf_counter()
        try:
            yield span
        finally:
            self._exit(span, t)
            self.spans.append(span)

    def wrap(self, name: str, fn, count=None):
        """Time each call of fn; count(result, args) gives the span's counts."""
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counts.update(count(result, args))
            return result
        return traced

    def wrap_gen(self, name: str, fn, split=None, per_item=None):
        """Time a call that returns an iterator, plus the iterator's consumption.

        split(result) -> (iterator, rebuild) lets fn return the iterator inside
        a larger value; per_item(span, item) updates counts for each item.
        """
        def traced(*args, **kwargs):
            span = self._new(name)
            self._stack.append(span)
            t = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, t)
            if split is None:
                return self._consume(span, iter(result), per_item)
            it, rebuild = split(result)
            return rebuild(self._consume(span, iter(it), per_item))
        return traced

    def _consume(self, span: Span, it, per_item):
        stack = self._stack
        pc = time.perf_counter
        n = 0
        try:
            while True:
                stack.append(span)
                t = pc()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:  # _exit, inlined: this runs once per replayed window
                    d = pc() - t
                    stack.pop()
                    span.dur += d
                    if stack:
                        stack[-1].child += d
                n += 1
                if per_item is not None:
                    per_item(span, item)
                yield item
        finally:
            span.counts["items"] = n
            self.spans.append(span)


def _flag(span: Span, obs) -> None:
    span.counts["flagged"] = span.counts.get("flagged", 0) + obs.verdict.is_anomaly


@contextmanager
def patched(tracer: Tracer):
    """Route the calls cli makes into each module through tracer spans."""
    from svaa import anomaly, birdseye, cli, heatmap, metrics, occupancy, records, synth

    orig_index = records.RecordStore.index
    traced_index = tracer.wrap("records.index", orig_index, lambda idx, a: {"rows": len(idx)})

    def index(store, camera_id):
        # only the first call per camera builds the sorted index; later ones are lookups
        key = (id(store), camera_id)
        if key in tracer._indexed:
            return orig_index(store, camera_id)
        tracer._indexed.add(key)
        return traced_index(store, camera_id)

    def windows(result, args):
        return {"windows": len(result[0])}

    targets = [
        (records.RecordStore, "index", index),
        (cli, "RecordStore", tracer.wrap("records.open", cli.RecordStore, lambda s, a: {"rows": len(s)})),
        (cli, "ingest_stream", tracer.wrap(
            "records.ingest", cli.ingest_stream,
            lambda r, a: {"lines": r.accepted + r.rejected, "rejected": r.rejected})),
        (occupancy, "window_count_series",
         tracer.wrap("records.window_count_series", occupancy.window_count_series, windows)),
        (anomaly, "window_count_series",
         tracer.wrap("records.window_count_series", anomaly.window_count_series, windows)),
        (occupancy, "replay", tracer.wrap_gen("occupancy.replay", occupancy.replay)),
        (anomaly, "replay", tracer.wrap_gen("anomaly.replay", anomaly.replay, per_item=_flag)),
        (synth, "generate_lines", tracer.wrap_gen(
            "synth.generate", synth.generate_lines,
            split=lambda r: (r[0], lambda it: (it, r[1])))),
    ]
    for fn in ("current_count", "hourly_average", "total_over_time", "peak_hours"):
        targets.append((metrics, fn, tracer.wrap(f"metrics.{fn}", getattr(metrics, fn),
                                                 lambda r, a: {"calls": 1})))
    for fn in ("window_bev", "daily_bev"):
        targets.append((birdseye, fn, tracer.wrap(f"birdseye.{fn}", getattr(birdseye, fn),
                                                  lambda r, a: {"points": len(r)})))
    targets += [
        (heatmap, "accumulate_grid", tracer.wrap("heatmap.accumulate_grid", heatmap.accumulate_grid,
                                                 lambda r, a: {"points": len(a[0])})),
        (heatmap, "gaussian_smooth", tracer.wrap("heatmap.gaussian_smooth", heatmap.gaussian_smooth,
                                                 lambda r, a: {"cells": int(r.cells.size)})),
        (heatmap, "render_pgm", tracer.wrap("heatmap.render", heatmap.render_pgm,
                                            lambda r, a: {"bytes": len(r)})),
        (heatmap, "render_csv", tracer.wrap("heatmap.render", heatmap.render_csv,
                                            lambda r, a: {"bytes": len(r)})),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
