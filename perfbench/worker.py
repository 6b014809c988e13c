"""One measuring process: set up, run one workload, print one JSON line.

``run.py`` starts this file as a fresh process for every run, and also for
the extra set-up samples (``--setup-only``).  The workload's own caller
runs on inputs from ``--seed`` for ``--seconds``; the other callers make
reference operations on inputs from REFERENCE_SEED, interleaved with its
loop, so that every result carries every metric while their figures stay
comparable between runs.  ``search`` is not a workload of its own: it only
ever runs as a reference pass.  End-to-end times are scaled by the
yardstick (see ``yardstick.py``); the raw ones are reported beside them.
With ``--trace 1`` the passes are fixed in size, kernel shims are
installed, and per-module metrics come out of the spans, unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import callers  # noqa: E402
import micro  # noqa: E402
from tracing import END, START, SpanIndex, Tracer, duration  # noqa: E402
from yardstick import Yardstick  # noqa: E402

REFERENCE_SEED = 0
WORKLOADS = ("radii", "cli")
# Rounds of cli commands (four compute commands and one verify call each)
# that a radii run makes: cmd_*_ms.p50 and verify_s are medians of this many.
CLI_REFERENCE_ROUNDS = 2


def _unit_scale_small(i: int) -> bool:
    _, d, scale = callers.RADII_CYCLE[i % len(callers.RADII_CYCLE)]
    return d <= 8 and scale == 1.0


# Operation indices of a reference pass in an end-to-end run: the unit-scale
# d <= 8 matrices of three radii cycles (18), two search cycles (16 calls),
# and CLI_REFERENCE_ROUNDS rounds of cli commands.
REFERENCE_OPS = {
    "radii": [i for i in range(3 * len(callers.RADII_CYCLE)) if _unit_scale_small(i)],
    "search": range(2 * len(callers.SearchCaller.calls)),
    "cli": range(CLI_REFERENCE_ROUNDS * len(callers.CliCaller.commands)),
}
# Every pass of a traced run: one radii cycle, one search cycle, one cli round.
TRACED_OPS = {"radii": range(len(callers.RADII_CYCLE)),
              "search": range(len(callers.SearchCaller.calls)),
              "cli": range(len(callers.CliCaller.commands))}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def build(workload: str, seed: int) -> dict:
    """Inputs for all three callers, plus warm-up: the run's set-up."""
    def seed_for(name):
        return seed if name == workload else REFERENCE_SEED
    built = {
        "radii": callers.RadiiCaller(seed_for("radii")),
        "search": callers.SearchCaller(REFERENCE_SEED),
        "cli": callers.CliCaller(seed_for("cli"), SRC, WORKDIR),
    }
    for caller in built.values():
        caller.setup()
    return built


def operations(caller, tracer: Tracer, ledger: callers.Ledger, indices) -> list:
    """The caller's operations at ``indices``."""
    return [partial(caller.run_one, tracer, ledger, i) for i in indices]


def end_to_end(workload: str, built: dict, seconds: float,
               ledger) -> tuple[dict[str, float], dict[str, float], float]:
    """The own caller's closed loop, with the reference operations of the
    other callers due at evenly spaced moments of the ``seconds`` the run
    measures, so that every metric averages over the whole run rather than
    one moment of a machine whose speed drifts.  The loop stops at the end
    of a ``block`` once ``seconds`` have passed and the own caller has made
    its ``min_ops``.  A yardstick sample precedes every operation.

    Returns the metrics from the operations' scaled times (see
    ``yardstick``), the metrics from their raw times, and the run's scale."""
    yardstick = Yardstick()
    tracer = Tracer()
    own = built[workload]
    groups = [operations(built[name], tracer, ledger, REFERENCE_OPS[name])
              for name in callers.CALLERS if name != workload]
    spread = [op for ops in zip_longest(*groups) for op in ops if op is not None]
    start = time.perf_counter()
    i = done = 0
    while True:
        elapsed = (time.perf_counter() - start) / seconds
        if done < len(spread) and elapsed >= done / len(spread):
            yardstick.sample()
            spread[done]()
            done += 1
        elif elapsed < 1.0 or i < own.min_ops or i % own.block:
            yardstick.sample()
            own.run_one(tracer, ledger, i)
            i += 1
        else:
            break
    yardstick.sample()
    built["cli"].check(ledger)

    scaled = [[*rec[:END], rec[START] + duration(rec) * yardstick.scale(rec[START]),
               *rec[END + 1:]] for rec in tracer.spans]
    metrics: dict[str, dict[str, float]] = {"scaled": {}, "raw": {}}
    for kind, spans in (("scaled", scaled), ("raw", tracer.spans)):
        index = SpanIndex(spans)
        for caller in built.values():
            metrics[kind].update(caller.end_to_end(index))
    return metrics["scaled"], metrics["raw"], yardstick.scale()


def traced(workload: str, built: dict, seed: int, ledger) -> dict[str, float]:
    """Microbenchmarks, then one radii and one search pass with shims
    installed and, for ``cli``, one cli round.  Each radii and search
    operation also runs once untraced, right before or right after its
    traced run (the order alternates), so that ``trace.overhead_share``
    compares the two on the same operations at the same moment of a
    machine whose speed drifts.  Only the traced runs are counted and
    checked."""
    radii, search, cli = built["radii"], built["search"], built["cli"]
    metrics: dict[str, float] = {}
    metrics.update(micro.linalg(seed))
    metrics.update(micro.norms(seed))
    metrics.update(micro.geometry(radii))
    metrics.update(micro.cli(cli))
    metrics.update(micro.suites())

    tracer = Tracer()
    replay = callers.Ledger()
    elapsed = {False: 0.0, True: 0.0}   # shims installed -> seconds
    pairs = [(built[name], i) for name in ("radii", "search") for i in TRACED_OPS[name]]
    for k, (caller, i) in enumerate(pairs):
        for shimmed in ((False, True) if k % 2 == 0 else (True, False)):
            if shimmed:
                tracer.install_shims()
            start = time.perf_counter()
            try:
                if shimmed:
                    caller.run_one(tracer, ledger, i)
                else:
                    caller.run_one(Tracer(), replay, i)
            finally:
                elapsed[shimmed] += time.perf_counter() - start
                tracer.remove_shims()
    if workload == "cli":
        for i in TRACED_OPS["cli"]:
            cli.run_one(tracer, ledger, i)
        cli.check(ledger)
    tracer.dump(WORKDIR / f"trace-{workload}-s{seed}.jsonl")

    index = SpanIndex(tracer.spans)
    metrics.update(radii.per_layer(index))
    metrics.update(search.per_layer(index))
    metrics["trace.overhead_share"] = elapsed[True] / elapsed[False] - 1.0
    return metrics


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    WORKDIR.mkdir(exist_ok=True)
    built = build(args.workload, args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    ledger = callers.Ledger()
    raw, scale = {}, None
    if args.trace:
        metrics = traced(args.workload, built, args.seed, ledger)
    else:
        metrics, raw, scale = end_to_end(args.workload, built, args.seconds, ledger)
    print(json.dumps({
        "ready_at": ready_at, "metrics": metrics, "raw": raw, "scale": scale,
        "attempted": ledger.attempted,
        "failures": ledger.failures, "unchecked": ledger.unchecked,
        "env": environment(args.workload, args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
