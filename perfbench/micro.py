"""Module microbenchmarks for the traced run.

Each one times a single module entry point directly, outside any workload
loop: the LAPACK kernels by dimension, three norms, the enclosing circle on
the 1,024-point boundary samples ``central_numerical_radius`` starts from,
interpreter start, ``import matvar`` and ``cli.main`` as separate costs, and
each verify suite at the trial count of the ``verify`` call.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import numpy as np

import matvar as mv
from matvar import cli as mv_cli

import callers

REPEATS = 3


def _per_call(fn, number: int) -> float:
    """Median over REPEATS batches of the time per call, in seconds."""
    per_call = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number)
    return statistics.median(per_call)


def linalg(seed: int) -> dict[str, float]:
    out = {}
    for d in (2, 8, 32):
        rng = np.random.default_rng([seed, d])
        h = mv.random_hermitian(d, rng)
        x = mv.ginibre(d, rng)
        number = 2000 if d < 32 else 200
        out[f"linalg.eigvalsh_us.d{d}"] = 1e6 * _per_call(lambda: np.linalg.eigvalsh(h), number)
        out[f"linalg.eigh_us.d{d}"] = 1e6 * _per_call(lambda: np.linalg.eigh(h), number)
        out[f"linalg.svd_us.d{d}"] = 1e6 * _per_call(
            lambda: np.linalg.svd(x, compute_uv=False), number)
    return out


def norms(seed: int) -> dict[str, float]:
    specs = {"schatten2": mv.NormSpec.schatten(2), "schatteninf": mv.NormSpec.schatten(np.inf),
             "kyfanpk22": mv.NormSpec.kyfanpk(2, 2)}
    out = {}
    for d in (2, 8):
        x = mv.ginibre(d, np.random.default_rng([seed, d]))
        for label, spec in specs.items():
            out[f"norms.norm_us.{label}.d{d}"] = 1e6 * _per_call(lambda: mv.norm(x, spec), 1000)
    return out


def geometry(radii: callers.RadiiCaller) -> dict[str, float]:
    """Median over the unit-scale matrices of one radii cycle."""
    times = []
    for i in range(len(callers.RADII_CYCLE)):
        if radii.slot(i)[2] != 1.0:
            continue
        points = mv.numerical_range(radii.matrix(i), 1024).boundary_points
        times.append(_per_call(lambda: mv.enclosing_circle(points), 1))
    return {"geometry.enclosing_circle_ms.n1024": 1000.0 * statistics.median(times)}


def _wall(argv: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - start, proc.stdout


def cli(cli_caller: callers.CliCaller) -> dict[str, float]:
    env = cli_caller.env
    out = {
        "cli.interpreter_ms": 1000.0 * statistics.median(
            _wall(["-c", "pass"], env)[0] for _ in range(REPEATS)),
        "cli.import_ms": 1000.0 * statistics.median(
            _wall(["-c", "import matvar"], env)[0] for _ in range(3)),
        "cli.import_modules": float(_wall(
            ["-c", "import sys; before = set(sys.modules); import matvar; "
                   "print(len(set(sys.modules) - before))"], env)[1]),
    }
    for cmd in ("norm", "radius", "wradius", "bounds"):   # verify: suites() below
        argv = cli_caller.argv(cmd, 0)

        def main():
            with contextlib.redirect_stdout(io.StringIO()):
                mv_cli.main(argv)

        out[f"cli.main_ms.{cmd}"] = 1000.0 * _per_call(main, 1)
    return out


def suites() -> dict[str, float]:
    out = {}
    for suite in ("scalar", "norms", "radii", "commutator"):
        start = time.perf_counter()
        mv.run_suite(suite, trials=callers.VERIFY_TRIALS, dim_max=callers.VERIFY_DIM_MAX,
                     seed=callers.VERIFY_SEED)
        out[f"suites.run_suite_s.{suite}"] = time.perf_counter() - start
    return out
