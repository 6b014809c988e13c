"""Smoke test: every workload at its smallest size, in both modes.

    python3 perfbench/smoke.py

Asserts that each run exits with 0 and prints, as its last line, exactly
the metrics BENCHMARK.json declares for the mode, each with its declared
unit and a finite value; that an end-to-end run also prints the metrics it
does not declare, with their units; and that the benchmark refuses to run,
without a result, where only BENCHMARK.json and perfbench/ exist.  Takes a
few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

from run import UNDECLARED_UNITS  # noqa: E402  (run.py sits beside this file)


def check_run(workload: str, trace: int) -> None:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1
    assert any(line.startswith("failed_share: ") for line in lines)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared), set(metrics) ^ set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        for name, unit in UNDECLARED_UNITS.items():
            assert any(line.startswith(f"undeclared {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
    print(f"ok: {workload} trace={trace}: {len(metrics)} metrics, "
          f"{result['failed']} of {result['attempted']} operations failed")


def check_refuses_without_library() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radii", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: refuses to run without src/matvar")


def main() -> int:
    check_refuses_without_library()
    for workload in [w["name"] for w in DECLARED["workloads"]]:
        for trace in (0, 1):
            check_run(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
