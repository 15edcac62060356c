"""Re-pin digests.json: the output digests of every operation at the pinned seed.

    python3 perfbench/pin_digests.py

Run it only when an output is meant to change, and say so in the change.
Every operation must still pass its ground-truth checks before it is pinned.
"""

import json
import shutil
import sys

import check
import run
import workloads
from reference import Reference

if __name__ == "__main__":
    pins = {}
    for name, shape in workloads.SHAPES.items():
        work = run.HERE / ".work" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        root, setup, _ = run.set_up(name, shape, run.PINNED_SEED, work, 1, False)
        wl = workloads.Workload(name, shape, root, setup)
        checker = check.Checker(wl.facts)
        # replay_live visits one camera per cycle; pin them all
        cycles = workloads.N_CAMERAS if name == "replay_live" else 1
        reference = Reference()
        for k in range(cycles):
            wl.reset()
            for op in wl.cycle(k):
                run.run_op(op, checker, None, reference, 0.0)
        shutil.rmtree(work)
        if checker.failed:
            sys.exit(f"{name}: {checker.failed} operations failed: {checker.reasons}")
        pins[name] = dict(sorted(checker.digests.items()))
    check.DIGESTS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
