"""Benchmark of the svaa CLI: one client, closed loop, every call through `svaa.cli.main`.

Usage, from the repository root:

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 15 --trace 0

Set-up builds the workload's store in a child process (build.py), three
times when untraced. The timed phase then runs whole command cycles until
the calls have taken --seconds and checks every output (see check.py).
Each call's and each set-up's time is divided by that of a fixed reference
kernel run just before and just after it (see reference.py); setup_s is the
median set-up in refs, converted back to seconds at reference.NOMINAL_S. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 one set-up and one cycle are traced (after the
same cycle untraced, for the overhead ratio and the raw per-call seconds),
the spans go to perfbench/.work/<workload>/spans.jsonl and the per-layer
metrics are printed instead.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import svaa  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from spans import Tracer, patched  # noqa: E402
from svaa import cli  # noqa: E402

SETUP_REPS = 3
PINNED_SEED = 1  # digests.json holds this seed's output digests
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"call_p50_ref": "ref", "work_per_ref": "1/ref", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (unit, span name, span field); *_us_per_* are derived below
PER_LAYER = {
    "records.open_s": ("s", "records.open", "s"),
    "records.open_rows": ("count", "records.open", "rows"),
    "records.index_s": ("s", "records.index", "s"),
    "records.index_rows": ("count", "records.index", "rows"),
    "records.ingest_s": ("s", "records.ingest", "s"),
    "records.ingest_lines": ("count", "records.ingest", "lines"),
    "records.ingest_rejected": ("count", "records.ingest", "rejected"),
    "records.window_count_series_s": ("s", "records.window_count_series", "s"),
    "records.window_count_series_windows": ("count", "records.window_count_series", "windows"),
    "occupancy.replay_s": ("s", "occupancy.replay", "s"),
    "occupancy.windows": ("count", "occupancy.replay", "items"),
    "anomaly.replay_s": ("s", "anomaly.replay", "s"),
    "anomaly.windows": ("count", "anomaly.replay", "items"),
    "anomaly.flagged": ("count", "anomaly.replay", "flagged"),
    "metrics.current_count_s": ("s", "metrics.current_count", "s"),
    "metrics.current_count_calls": ("count", "metrics.current_count", "calls"),
    "metrics.hourly_average_s": ("s", "metrics.hourly_average", "s"),
    "metrics.hourly_average_calls": ("count", "metrics.hourly_average", "calls"),
    "metrics.total_over_time_s": ("s", "metrics.total_over_time", "s"),
    "metrics.total_over_time_calls": ("count", "metrics.total_over_time", "calls"),
    "metrics.peak_hours_s": ("s", "metrics.peak_hours", "s"),
    "metrics.peak_hours_calls": ("count", "metrics.peak_hours", "calls"),
    "birdseye.window_bev_s": ("s", "birdseye.window_bev", "s"),
    "birdseye.daily_bev_s": ("s", "birdseye.daily_bev", "s"),
    "heatmap.accumulate_grid_s": ("s", "heatmap.accumulate_grid", "s"),
    "heatmap.points": ("count", "heatmap.accumulate_grid", "points"),
    "heatmap.gaussian_smooth_s": ("s", "heatmap.gaussian_smooth", "s"),
    "heatmap.cells": ("count", "heatmap.gaussian_smooth", "cells"),
    "heatmap.render_s": ("s", "heatmap.render", "s"),
    "heatmap.render_bytes": ("count", "heatmap.render", "bytes"),
    "cli.self_s": ("s", "cli", "self_s"),
    "cli.calls": ("count", "cli", "calls"),
    "cli.output_bytes": ("count", "cli", "output_bytes"),
    "synth.generate_s": ("s", "synth.generate", "s"),
    "synth.lines": ("count", "synth.generate", "items"),
}
# (metric, time metric, count metric): microseconds per unit of work
PER_UNIT = [
    ("records.open_us_per_row", "records.open_s", "records.open_rows"),
    ("records.ingest_us_per_line", "records.ingest_s", "records.ingest_lines"),
    ("occupancy.us_per_window", "occupancy.replay_s", "occupancy.windows"),
    ("anomaly.us_per_window", "anomaly.replay_s", "anomaly.windows"),
]


def set_up(workload: str, shape, seed: int, work: Path, reps: int, trace: bool) -> tuple[Path, dict, list[float]]:
    """Build the store reps times, each in a fresh process; keep the last build.

    Returns each set-up's time in refs.
    """
    times = []
    for rep in range(reps):
        root = work / f"setup_{rep}"
        root.mkdir(parents=True)
        args_path, result_path = work / f"setup_{rep}.pickle", work / f"setup_{rep}.json"
        with args_path.open("wb") as fh:
            pickle.dump((workload, shape, seed, root, rep == reps - 1, trace), fh)
        try:
            subprocess.run([sys.executable, str(HERE / "build.py"), str(args_path), str(result_path)],
                           check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise RuntimeError(f"set-up {rep} failed: {exc}") from exc
        result = json.loads(result_path.read_text(encoding="utf-8"))
        times.append(result["setup_ref"])
        if rep < reps - 1:
            shutil.rmtree(root)
    return root, result, times


@dataclass(frozen=True)
class Sample:
    op: workloads.Op
    seconds: float  # wall time of the call
    ref: float  # mean wall time of the reference kernel just before and after it
    units: int  # work the call did: windows, accepted records, or 1


def run_op(op, checker: check.Checker, tracer: Tracer | None, reference: Reference,
           ref_before: float) -> tuple[Sample, float]:
    """One CLI call, timed and checked, then the reference kernel.

    The sample's ref is the mean of the kernel runs just before and just
    after the call; the one after is returned for the next call.
    """
    sink = check.sink_for(op)
    rc, error, span = None, "", None
    t = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(list(op.argv), out=sink)
        else:
            tracer.start_op(op.label)
            with tracer.span("cli") as span:
                rc = cli.main(list(op.argv), out=sink)
    except (Exception, SystemExit) as exc:
        error = f"raised {exc!r}"
    elapsed = time.perf_counter() - t - sink.busy_s
    sink.close()
    if span is not None:
        span.dur -= sink.busy_s
        span.counts.update(calls=1, output_bytes=sink.bytes)
    ref_after = reference.seconds()
    units = 1
    if checker.check(op, rc, sink, error):
        if op.kind == "ingest":
            units = json.loads("".join(sink.parts))["accepted"]
        elif op.kind == "replay":
            units = sink.lines - op.header
    return Sample(op, elapsed, (ref_before + ref_after) / 2, units), ref_after


def run_cycles(wl: workloads.Workload, checker: check.Checker, seconds: float,
               tracer: Tracer | None = None) -> list[Sample]:
    """Whole cycles until the calls have taken `seconds`."""
    reference = Reference()
    ref = reference.seconds()
    samples = []
    busy = 0.0
    k = 0
    while True:
        wl.reset()
        for op in wl.cycle(k):
            sample, ref = run_op(op, checker, tracer, reference, ref)
            samples.append(sample)
            busy += sample.seconds
        k += 1
        if busy >= seconds:
            return samples


def call_p50(samples: list[Sample], per_ref: bool) -> float:
    return statistics.median(s.seconds / s.ref if per_ref else s.seconds for s in samples if s.op.latency)


def work_rate(samples: list[Sample], per_ref: bool) -> float:
    work = [s for s in samples if s.op.work]
    return sum(s.units for s in work) / sum(s.seconds / s.ref if per_ref else s.seconds for s in work)


def end_to_end(samples: list[Sample], setup_times: list[float]) -> dict[str, float]:
    return {
        "call_p50_ref": call_p50(samples, True),
        "work_per_ref": work_rate(samples, True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times) * NOMINAL_S,
    }


def per_layer(spans: list[dict], untraced: list[Sample], traced: list[Sample], store: Path,
              checker: check.Checker) -> dict[str, float]:
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        agg = totals.setdefault(span["name"], {})
        for key, value in (("s", span["dur_s"]), ("self_s", span["self_s"]), *span["counts"].items()):
            agg[key] = agg.get(key, 0) + value
    out = {name: totals.get(span, {}).get(field, 0) for name, (_, span, field) in PER_LAYER.items()}
    for name, secs, count in PER_UNIT:
        out[name] = 1e6 * out[secs] / out[count] if out[count] else 0.0
    out["birdseye.points"] = (totals.get("birdseye.window_bev", {}).get("points", 0)
                              + totals.get("birdseye.daily_bev", {}).get("points", 0))
    opens = [s for s in spans if s["name"] == "records.open" and s["op"] is not None]
    rows = opens[-1]["counts"]["rows"] if opens else 0
    store_bytes = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    out["records.store_bytes_per_record"] = store_bytes / rows if rows else 0.0
    out["trace.overhead_ratio"] = sum(s.seconds / s.ref for s in traced) / sum(s.seconds / s.ref for s in untraced) - 1
    out["cli.call_p50_s"] = call_p50(untraced, False)
    out["cli.work_per_s"] = work_rate(untraced, False)
    out["ref.kernel_s"] = statistics.median(s.ref for s in untraced)
    out["error_rate"] = checker.failed / checker.attempted
    return out


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    units.update({name: "us" for name, _, _ in PER_UNIT})
    units.update({"birdseye.points": "count", "records.store_bytes_per_record": "bytes",
                  "trace.overhead_ratio": "ratio", "cli.call_p50_s": "s", "cli.work_per_s": "1/s",
                  "ref.kernel_s": "s", "error_rate": "ratio"})
    return units


def run(workload: str, seed: int, seconds: float, trace: bool, shape=None, pinned=None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    shape = shape or workloads.SHAPES[workload]
    if pinned is None:
        pinned = check.load_pinned(workload) if seed == PINNED_SEED and shape == workloads.SHAPES[workload] else {}
    work = HERE / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    root, setup, setup_times = set_up(workload, shape, seed, work, 1 if trace else SETUP_REPS, trace)
    wl = workloads.Workload(workload, shape, root, setup)
    checker = check.Checker(wl.facts, pinned)
    if not trace:
        metrics = end_to_end(run_cycles(wl, checker, seconds), setup_times)
        units = END_TO_END_UNITS
    else:
        untraced = run_cycles(wl, checker, 0)
        tracer = Tracer()
        with patched(tracer):
            traced = run_cycles(wl, checker, 0, tracer)
        spans = setup["spans"] + [s.to_dict() for s in tracer.spans]
        with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
        metrics = per_layer(spans, untraced, traced, wl.store, checker)
        units = per_layer_units()
    shutil.rmtree(root)
    for reason in checker.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "digests": checker.digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(svaa.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: svaa was imported from {svaa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    del result["digests"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
