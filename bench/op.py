"""One cold task of a benchmark workload, in its own process.

    python3 bench/op.py --workload NAME --task TASK --index I [--trace 1] [--wrong-expected]

Imports `satgame` from `src/` of the checkout (that import and the workload
lookup are the set-up), runs the task once as part of operation I of the run
(the id its spans carry), checks its output and prints one JSON object:
set-up and task time, peak resident memory, failed checks, exact counts and,
when traced, the span summary. With `--task -` it only sets up. A fresh
process starts with every memo of the library empty, so each task is cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--task", required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import satgame
    import satgame.verify  # noqa: F401  (not re-exported by the package)
    from workloads import WORKLOADS

    if not Path(satgame.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"satgame was imported from {satgame.__file__}, not from {ROOT / 'src'}")
    tasks = {task.name: task for task in WORKLOADS[args.workload]}
    out: dict = {"setup_s": time.perf_counter() - started}
    if args.task == "-":
        print(json.dumps(out))
        return 0

    task = tasks[args.task]
    expected = task.expected
    if args.wrong_expected:
        expected = {key: value + 1 for key, value in expected.items()}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(satgame, op_id=args.index)
    failures: list[str] = []
    counts: dict = {}
    with tracer if args.trace else nullcontext():
        t0 = time.perf_counter()
        try:
            result, counts = task.run(satgame)
        except Exception:
            failures.append(traceback.format_exc())
        out["op_s"] = time.perf_counter() - t0
    if not failures:
        try:
            failures = task.check(satgame, result, expected)
        except Exception:
            failures.append(traceback.format_exc())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["failures"] = failures
    out["counts"] = counts
    if args.trace:
        out["summary"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
