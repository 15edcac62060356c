"""Set-up child process: builds one workload's store, see workloads.build.

    python3 perfbench/build.py ARGS.pickle RESULT.json

run.py writes ARGS.pickle (the arguments of workloads.build) and reads the
result back. Building in a separate process keeps the generator's memory
out of the benchmark's peak RSS and gives every set-up a fresh interpreter.
"""

import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    args_path, result_path = sys.argv[1:3]
    with open(args_path, "rb") as fh:
        args = pickle.load(fh)
    result = workloads.build(*args)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
