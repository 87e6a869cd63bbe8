"""satgame benchmark: exact search, fuzzed play and enumeration.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--wrong-expected]

Closed loop, one client: operations of the workload run one after another
while the next one is expected to end within half an operation of
`--seconds`; at least one always runs. An operation runs each task of the
workload once, each cold in a fresh process (`bench/op.py`) pinned to the
CPU that a short probe finds fastest at its start. Every output is checked
outside the timed region. `setup_s` is the median set-up time of every
process of the run, five of which only set up.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced operations and reports the per-layer
metrics; `trace.overhead_s` is traced minus untraced median operation time.
A task's exact counts (score, positions, outputs, and when traced every
call count) must repeat across the run, or the later run of the task counts
as failed. The seed changes no input: every task is deterministic, and the
seed is recorded with the results. `--wrong-expected` shifts every expected
value by one, to show that the checks can fail.

Stdout: one JSON line of run metadata, then the result line
`{"correct", "attempted", "failed", "metrics"}`, where `attempted` counts
task runs. Exits 1 without a result when a task's process cannot run (for
example, without `src/satgame`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# every set-up compiles the sources, whatever bytecode earlier runs left
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class TaskFailed(RuntimeError):
    pass


def probe() -> float:
    """Median time of a short interpreter-bound loop: bit tricks, a dict."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        seen: dict = {}
        for r in range(120):
            for v in range(24):
                m = (v * 0x9E3779B1 ^ r) & 0xFFFFFF
                c = 0
                while m:
                    low = m & -m
                    c += low.bit_length()
                    m ^= low
                seen[v, c & 63] = seen.get((v, c & 63), 0) + 1
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fastest_cpu(allowed: set[int]) -> set[int]:
    """The allowed CPU on which `probe` runs fastest right now.

    On the 2-vCPU host this benchmark was built on, each vCPU slows down by
    up to 1.7x, independently of the other and for seconds at a time.
    Starting each process on the CPU that is fast at that moment cut the
    spread of one solve's time from 18% to 10% (quartiles over median).
    """
    speed = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    os.sched_setaffinity(0, allowed)
    return {min(speed, key=speed.get)}


def run_task(args, task: str, index: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "op.py"), "--workload", args.workload, "--task", task,
           "--index", str(index), "--trace", str(int(traced))]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, fastest_cpu(allowed))  # the child inherits it
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise TaskFailed(f"task {task} ran past the run's time limit") from exc
    finally:
        os.sched_setaffinity(0, allowed)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise TaskFailed(f"task {task} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def metadata(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": rev, "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_lines": src_lines,
        "cold_state": "fresh process per task",
        "cpu": "each process pinned to the allowed CPU fastest on a probe",
    }


def exact(result: dict) -> dict:
    """What must repeat across runs of one task: counts, and every traced
    quantity but time."""
    summary = {k: v for k, v in result.get("summary", {}).items() if k != "self_s"}
    return {**result["counts"], **summary}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    tasks = [task.name for task in WORKLOADS[args.workload]]

    # ops: (traced, {task: result}), one entry per operation
    ops: list[tuple[bool, dict[str, dict]]] = []
    try:
        setups = [run_task(args, "-", -1, False, deadline)["setup_s"] for _ in range(SETUP_RUNS)]
        meta = metadata(args)
        start = time.perf_counter()
        rounds = 0
        while True:
            for traced in [(False,), (False, True)][args.trace]:
                ops.append((traced, {t: run_task(args, t, len(ops), traced, deadline) for t in tasks}))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds / 2 > args.seconds:
                break
    except TaskFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    reference: dict = {}
    for index, (traced, results) in enumerate(ops):
        for task, result in results.items():
            ref = reference.setdefault((task, traced), exact(result))
            if exact(result) != ref:
                result["failures"].append(
                    f"exact counts differ from the first run's: {ref} vs {exact(result)}")
            attempted += 1
            if result["failures"]:
                failed += 1
                print(f"bench: task {task} of operation {index} failed: "
                      + "; ".join(result["failures"]), file=sys.stderr)

    untraced = [results for traced, results in ops if not traced]
    wall_s = statistics.median(sum(r["op_s"] for r in res.values()) for res in untraced)
    task_s = {t: statistics.median(res[t]["op_s"] for res in untraced) for t in tasks}
    if args.trace:
        traced_ops = [results for traced, results in ops if traced]
        search = {t.name: {} for t in WORKLOADS["search"]}
        layers = []
        for results in traced_ops:
            for t in search.keys() & results.keys():
                search[t] = {"counts": results[t]["counts"], "summary": results[t]["summary"],
                             "op_s": task_s[t]}
            layers.append(layer_metrics([r["summary"] for r in results.values()], search))
        metrics = {key: layers[0][key] if unit(key) == "count"  # checked equal above
                   else statistics.median(layer[key] for layer in layers) for key in layers[0]}
        traced_wall = statistics.median(sum(r["op_s"] for r in res.values()) for res in traced_ops)
        metrics["trace.overhead_s"] = traced_wall - wall_s
    else:
        setups += [r["setup_s"] for res in untraced for r in res.values()]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in res.values())
                                             for res in untraced),
            "ok_ratio": (attempted - failed) / attempted,
        }
    meta["operations"] = len(ops)
    meta["tasks"] = {t: {"op_s": task_s[t], **exact(ops[-1][1][t])} for t in tasks}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
