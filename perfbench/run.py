"""matvar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload radii|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Lines before it give the environment,
the failed share, and the id of every failed and every unchecked operation.
``correct`` is false when an operation failed other than by one of the
seed's known defects (see ``callers.Ledger``).  See README.md.

This process only orchestrates: each measurement runs in a fresh
``worker.py`` process, one at a time, all on one CPU.  ``setup_s`` is the
median over SETUP_SAMPLES processes of the time from spawn to the first
timed operation (the measuring one, and set-up-only ones before and after
it), scaled by the measuring run's yardstick (see ``yardstick.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
LIBRARY = ROOT / "src" / "matvar" / "__init__.py"
RESULTS = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# Metrics a run prints but BENCHMARK.json does not declare: their spread
# from seed to seed exceeds any bound the benchmark may set (README.md).
UNDECLARED_UNITS = {"radius_ms.p90": "ms", "wradius_ms.p90": "ms"}


class BenchError(RuntimeError):
    pass


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn time and its result."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker passed the {TIME_LIMIT_S:g} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return spawned, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("radii", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not LIBRARY.is_file():
        print(f"error: {LIBRARY.relative_to(ROOT)} not found; run from a matvar checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and everything it starts: the yardstick and
    # the operations it scales then run on the same vCPU, and subprocesses
    # start where their parent's pages are warm (see README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        setup = []
        if not args.trace:
            spawned, ready = spawn(args, ["--setup-only"], deadline)
            setup.append(ready["ready_at"] - spawned)
        spawned, result = spawn(args, [], deadline)
        setup.append(result["ready_at"] - spawned)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 2):
                spawned, ready = spawn(args, ["--setup-only"], deadline)
                setup.append(ready["ready_at"] - spawned)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        result["raw"]["setup_s"] = statistics.median(setup)
        metrics["setup_s"] = statistics.median(setup) * result["scale"]
    if set(units) - set(metrics):
        print(f"error: metrics {sorted(set(units) - set(metrics))} of BENCHMARK.json missing",
              file=sys.stderr)
        return 1

    attempted, failures = result["attempted"], result["failures"]
    unexpected = [op for op, _, known in failures if not known]
    print("env: " + json.dumps(result["env"]))
    print(f"failed_share: {len(failures) / attempted:.6g} ({len(failures)} of {attempted}; "
          f"{len(unexpected)} not known defects)")
    for op, problem, known in failures:
        print(f"FAILED {op}: {problem}" + ("" if known else " [not a known defect]"))
    for op, reason in result["unchecked"]:
        print(f"UNCHECKED {op}: {reason}")
    if not args.trace:
        print(f"scale: {result['scale']:.6g} (NOMINAL_S / the run's trimmed mean "
              f"yardstick time, which scales set-up times)")
        for name in sorted(result["raw"]):
            print(f"raw {name} = {result['raw'][name]!r} "
                  f"{units.get(name) or UNDECLARED_UNITS[name]}")
    for name in sorted(metrics):
        if name in units:
            print(f"{name} = {metrics[name]!r} {units[name]}")
        else:
            print(f"undeclared {name} = {metrics[name]!r} {UNDECLARED_UNITS[name]}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
