"""Self-test of the benchmark at tiny scale (about a minute on two cores).

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run report
exactly the metrics BENCHMARK.json names, with their units, and that every
output passes. It then shows the checker is not vacuous: a corrupted count
fails the ground-truth check, a corrupted occupancy line that keeps its
count fails the pinned digest, and a wrong window count in a replay fails
the streamed window sum.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from datetime import datetime

import check
import run
import workloads
from svaa import cli

SPAN = (datetime.fromisoformat("2023-10-15T00:00:00+00:00"), datetime.fromisoformat("2023-10-17T00:00:00+00:00"))
TINY = {name: replace(shape, span=SPAN) for name, shape in workloads.SHAPES.items()}
SEED = 3


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def declared_units(section: str) -> dict[str, str]:
    doc = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def reported_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_metrics(name: str) -> dict[str, str]:
    plain = run.run(name, SEED, 0, False, shape=TINY[name])
    expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, f"{name}: every output passes")
    expect(reported_units(plain) == declared_units("end_to_end"), f"{name}: end-to-end metrics and units")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: end-to-end metrics are nonzero")
    traced = run.run(name, SEED, 0, True, shape=TINY[name], pinned=plain["digests"])
    expect(traced["correct"], f"{name}: traced outputs match the untraced digests")
    expect(reported_units(traced) == declared_units("per_layer"), f"{name}: per-layer metrics and units")
    return plain["digests"]


def corrupted(attr: str, wrap) -> object:
    original = getattr(cli, attr)
    setattr(cli, attr, wrap(original))
    return original


def main() -> int:
    digests = {name: check_metrics(name) for name in TINY}

    def off_by_one(cmd):
        def cmd_current(args, config, out):
            sink = check.Sink()
            rc = cmd(args, config, sink)
            out.write(f"{int(''.join(sink.parts)) + 1}\n")
            return rc
        return cmd_current

    original = corrupted("cmd_current", off_by_one)
    try:
        result = run.run("point_queries", SEED, 0, False, shape=TINY["point_queries"])
    finally:
        cli.cmd_current = original
    expect(result["failed"] == 1 and not result["correct"], "a wrong `current` count is a failed operation")

    original = corrupted("_occupancy_fields", lambda f: lambda obs: f(obs).replace('"bucket"', '"bucket "'))
    try:
        result = run.run("point_queries", SEED, 0, True, shape=TINY["point_queries"],
                         pinned=digests["point_queries"])
    finally:
        cli._occupancy_fields = original
    expect(result["failed"] == 2 and not result["correct"], "a changed occupancy payload fails its pinned digest")
    expect(result["metrics"]["error_rate"]["value"] > 0, "the failures raise error_rate")

    original = corrupted("_occupancy_fields", lambda f: lambda obs: f(obs).replace('"count":', '"count":1'))
    try:
        result = run.run("replay_live", SEED, 0, False, shape=TINY["replay_live"])
    finally:
        cli._occupancy_fields = original
    expect(result["failed"] == 1, "a wrong window count in a streamed replay is a failed operation")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
