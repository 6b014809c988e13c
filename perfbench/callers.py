"""The three callers: ``radii`` and ``cli`` drive the two workloads, and
``search`` runs only as a reference pass.

Each caller builds its inputs from a seed, runs operations in a closed loop
(the next call starts when the previous one returns), checks every result,
and turns the spans of its calls into metrics.  A caller makes at most one
child process at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import matvar as mv
from matvar import cli as mv_cli

from tracing import EXTRA, OPTIMISERS, SpanIndex, duration


class Ledger:
    """Attempted operations, the ones that failed, and the ones left unchecked.

    A failure is *known* when it is one of the seed's documented defects: a
    ``radius`` call on a scaled copy (scale != 1) of a radii matrix, or on
    its d = 16 matrix.  Any other failure makes the run incorrect.  An operation whose check needs
    a result that another operation failed to give is unchecked: it is
    listed, but counted neither as passed nor as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []   # op, problem, known
        self.unchecked: list[tuple[str, str]] = []

    def record(self, op: str, problem: str | None, known: bool = False) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append((op, problem, known))

    def skip(self, op: str, reason: str) -> None:
        self.unchecked.append((op, reason))


def _call(tracer, name, op, fn, *args, attrs=None, **kwargs):
    """Run one library call inside a span; return (result, error text, span)."""
    with tracer.span(name, op, **(attrs or {})) as rec:
        try:
            return fn(*args, **kwargs), None, rec
        except Exception as exc:  # the op fails; the loop goes on
            return None, f"{type(exc).__name__}: {exc}", rec


def _ms(seconds: list[float]) -> list[float]:
    return [1000.0 * s for s in seconds]


def _hd(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of every
    order statistic, weighted towards the p-th.  A run's 18-144 calls mix
    matrices whose times cluster with gaps between the clusters, so the one
    or two calls nearest the quantile, and with them the plain order
    statistic, can jump from one cluster to the next with the noise of a
    single call; the weighted mean moves far less."""
    if len(values) == 1:
        return values[0]
    return float(hdquantiles(np.asarray(values), prob=[p])[0])


def _p50(values: list[float]) -> float:
    return _hd(values, 0.5)


def _p90(values: list[float]) -> float:
    return _hd(values, 0.9)


def _seed_int(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# radii: six calls per matrix over a stratified stream


# One cycle of the stream.  Scaled slots repeat the unit-scale matrix of the
# same (ensemble, d) in the cycle; the d = 16 slot alternates ensembles.
# Loops stop only at the end of a cycle, so every run has the same mix.
RADII_CYCLE = (
    ("ginibre", 2, 1.0), ("normal", 2, 1.0),
    ("ginibre", 4, 1.0), ("ginibre", 4, 1e-8), ("ginibre", 4, 1e8),
    ("normal", 4, 1.0), ("normal", 4, 1e-4),
    ("ginibre", 8, 1.0), ("ginibre", 8, 1e-4), ("ginibre", 8, 1e4), ("normal", 8, 1.0),
    ("tail", 16, 1.0),
)
# Tolerances of the matching verify checks, taken relative to the value.
GAP_TOL = 1e-5          # duality-gap
SCALE_TOL = 1e-8        # shift-covariance
NORMAL_TOL = 1e-7       # normal-spectrum-radius
WRADIUS_TOL = 1e-7      # wradius-below-cradius
MEMBERSHIP_TOL = 1e-7   # center-in-range
NUMRAD_TOL = 1e-9       # numrad-below-cartesian (the user tolerance)


class RadiiCaller:
    block = len(RADII_CYCLE)
    # A run processes at least four cycles (48 matrices, 144 radius calls)
    # however long that takes: a cycle's time varies by a factor of two from
    # seed to seed, so the radii figures of a run need every cycle it can
    # hold.  At the seed four cycles outlast --seconds, so every run has
    # exactly four, and which seeds happen to finish early does not decide
    # which runs hold more.
    min_ops = 4 * block

    def __init__(self, seed: int):
        self.seed = seed
        self.unit: dict[tuple, float] = {}   # (cycle, ens, d, kind) -> r at scale 1
        self.gap_rel: list[float] = []
        self.scale_err: list[float] = []

    def slot(self, i: int) -> tuple[str, int, float, int]:
        cycle, pos = divmod(i, len(RADII_CYCLE))
        ens, d, scale = RADII_CYCLE[pos]
        if ens == "tail":
            ens = ("ginibre", "normal")[cycle % 2]
        return ens, d, scale, cycle

    def matrix(self, i: int) -> np.ndarray:
        ens, d, scale, cycle = self.slot(i)
        rng = np.random.default_rng([self.seed, cycle, d, ens == "normal"])
        x = mv.ginibre(d, rng) if ens == "ginibre" else mv.random_normal_matrix(d, rng)
        return scale * x

    def setup(self) -> None:
        """Warm-up: one call of each kind, so lazy imports are done."""
        x = self.matrix(0)
        mv.radius(x, "C")
        mv.numerical_radius(x)
        mv.central_numerical_radius(x)
        mv.membership_in_range(x, 0j)

    def run_one(self, tracer, ledger: Ledger, i: int) -> None:
        ens, d, scale, cycle = self.slot(i)
        x = self.matrix(i)
        op = f"radii/s{self.seed}/m{i}"
        attrs = {"ens": ens, "d": d, "scale": scale}
        with tracer.span("radii.matrix", op, **attrs):
            rad = {k: _call(tracer, "radii.radius", op, mv.radius, x, k,
                            attrs={**attrs, "kind": k})[:2] for k in "LRC"}
            numrad = _call(tracer, "radii.numerical_radius", op, mv.numerical_radius, x,
                           attrs=attrs)[:2]
            wrad = _call(tracer, "radii.central_numerical_radius", op,
                         mv.central_numerical_radius, x, attrs=attrs)[:2]
            member = None
            if rad["C"][0] is not None:
                member = _call(tracer, "radii.membership_in_range", op,
                               mv.membership_in_range, x, rad["C"][0].y_star, attrs=attrs)[:2]
        self._check(ledger, op, x, ens, d, scale, cycle, rad, numrad, wrad, member)

    def _check(self, ledger, op, x, ens, d, scale, cycle, rad, numrad, wrad, member):
        norm2 = float(np.linalg.norm(x, 2))
        spec_rad = float(np.abs(np.linalg.eigvals(x)).max())
        enclosing = mv.enclosing_circle(np.linalg.eigvals(x)).radius if ens == "normal" else None
        passed = {}
        for kind, (res, err) in rad.items():
            if err is None:
                r = res.value
                gap_rel = res.gap / r**2 if r > 0 else res.gap
                self.gap_rel.append(gap_rel)
                if gap_rel > GAP_TOL:
                    err = f"gap/r^2 = {gap_rel:.3e} > {GAP_TOL:g}"
                elif scale == 1.0:
                    self.unit[(cycle, ens, d, kind)] = r
                base = self.unit.get((cycle, ens, d, kind))
                if err is None and scale != 1.0 and base is not None:
                    rel = abs(r - scale * base) / (scale * base)
                    self.scale_err.append(rel)
                    if rel > SCALE_TOL:
                        err = f"|r(cX) - c r(X)| / c r(X) = {rel:.3e} at c = {scale:g}"
                if err is None and enclosing is not None:
                    rel = abs(r - enclosing) / enclosing
                    if rel > NORMAL_TOL:
                        err = f"normal: r differs from the eigenvalue circle by {rel:.3e}"
            passed[kind] = err is None
            ledger.record(f"{op}/radius.{kind}", err, known=scale != 1.0 or d == 16)

        w, err = numrad
        if err is None:
            lo, hi = max(spec_rad, norm2 / 2.0), norm2
            if not (lo - NUMRAD_TOL * hi <= w <= hi * (1.0 + NUMRAD_TOL)):
                err = f"w = {w!r} outside [{lo!r}, {hi!r}]"
        ledger.record(f"{op}/numerical_radius", err)

        res, err = wrad
        if err is None and not passed["C"]:
            ledger.skip(f"{op}/central_numerical_radius", "no checked r_C to compare with")
        else:
            if err is None and res[1] > rad["C"][0].value * (1.0 + WRADIUS_TOL):
                err = f"w_C = {res[1]!r} exceeds r_C = {rad['C'][0].value!r}"
            ledger.record(f"{op}/central_numerical_radius", err)

        if member is None:
            ledger.skip(f"{op}/membership_in_range", "not called: radius C gave no centre")
            return
        res, err = member
        if err is None and res.margin < -MEMBERSHIP_TOL * norm2:
            err = f"C centre outside W(X): margin {res.margin:.3e}"
        ledger.record(f"{op}/membership_in_range", err)

    # -- metrics --------------------------------------------------------

    @staticmethod
    def end_to_end(index: SpanIndex) -> dict[str, float]:
        rad = _ms([duration(s) for s in index.named("radii.radius")])
        wrad = _ms([duration(s) for s in index.named("radii.central_numerical_radius")])
        numrad = _ms([duration(s) for s in index.named("radii.numerical_radius")])
        per_matrix = [duration(s) for s in index.named("radii.matrix")]
        return {
            "matrices_per_s": 1.0 / statistics.geometric_mean(per_matrix),
            "radius_ms.p50": _p50(rad),
            "radius_ms.p90": _p90(rad),
            "wradius_ms.p50": _p50(wrad),
            "wradius_ms.p90": _p90(wrad),
            "numrad_ms.p50": _p50(numrad),
        }

    def per_layer(self, index: SpanIndex) -> dict[str, float]:
        out: dict[str, float] = {}
        rad = index.named("radii.radius")
        wrad = index.named("radii.central_numerical_radius")

        def p50_where(spans, key, value):
            return _p50(_ms([duration(s) for s in spans if s[EXTRA][key] == value]))

        for kind in "LRC":
            out[f"radii.radius_ms.p50.{kind}"] = p50_where(rad, "kind", kind)
        for ens in ("ginibre", "normal"):
            out[f"radii.radius_ms.p50.{ens}"] = p50_where(rad, "ens", ens)
        for d in (2, 4, 8, 16):
            out[f"radii.radius_ms.p50.d{d}"] = p50_where(rad, "d", d)
            out[f"radii.wradius_ms.p50.d{d}"] = p50_where(wrad, "d", d)

        def per_call(spans, what):
            if what == "optimizer_runs":
                total = sum(index.count(s, OPTIMISERS) for s in spans)
            elif what == "nfev":
                total = sum(index.nfev(s) for s in spans)
            else:
                total = sum(index.count(s, (what,)) for s in spans)
            return total / len(spans)

        for ens in ("ginibre", "normal"):
            group = [s for s in rad if s[EXTRA]["ens"] == ens]
            for what in ("eigvalsh", "eigh", "optimizer_runs", "nfev"):
                out[f"radii.radius.{what}_per_call.{ens}"] = per_call(group, what)
        for what in ("eigvalsh", "optimizer_runs", "nfev"):
            out[f"radii.wradius.{what}_per_call"] = per_call(wrad, what)
        out["radii.numrad.eigvalsh_per_call"] = per_call(
            index.named("radii.numerical_radius"), "eigvalsh")
        for label, spans in (("radius", rad), ("wradius", wrad)):
            out[f"radii.{label}.kernel_ms_per_call"] = 1000.0 * statistics.fmean(
                index.kernel_time(s) for s in spans)
            out[f"radii.{label}.self_ms_per_call"] = 1000.0 * statistics.fmean(
                index.self_time(s) for s in spans)
        out["radii.membership_ms.p50"] = _p50(_ms(
            [duration(s) for s in index.named("radii.membership_in_range")]))
        out["radii.radius.gap_rel.max"] = max(self.gap_rel)
        out["radii.radius.scale_err_rel.max"] = max(self.scale_err, default=0.0)
        return out


# ---------------------------------------------------------------------------
# search: search_constant over four exponent triples and two dimension sets


SEARCH_TRIPLES = ((2.0, 2.0, 2.0), (2.0, 2.0, math.inf), (3.0, 3.0, math.inf), (1.0, 1.0, 2.0))
SEARCH_DIMS = ((2, 3), (4, 8))
SEARCH_TRIALS = 500


def _triple_label(triple) -> str:
    return "".join(f"{k}{'inf' if math.isinf(v) else int(v)}" for k, v in zip("pqr", triple))


class SearchCaller:
    """Not a declared workload: every run makes its calls as a reference pass."""
    calls = [(t, d) for t in SEARCH_TRIPLES for d in SEARCH_DIMS]

    def __init__(self, seed: int):
        self.seed = seed
        self.family = {t: max(f.exact_ratio for f in mv.witness_families(*t))
                       for t in SEARCH_TRIPLES}

    def setup(self) -> None:
        mv.search_constant(2, 2, 2, (2,), trials=20, seed=0)

    def run_one(self, tracer, ledger: Ledger, i: int) -> None:
        triple, dims = self.calls[i % len(self.calls)]
        op = f"search/s{self.seed}/c{i}"
        res, err, rec = _call(tracer, "commutators.search_constant", op, mv.search_constant,
                         *triple, dims, trials=SEARCH_TRIALS, seed=_seed_int(self.seed, i),
                         attrs={"triple": _triple_label(triple), "trials": SEARCH_TRIALS})
        if err is None:
            rec[EXTRA]["skipped"] = res.skipped
            if res.falsification:
                err = f"falsification flag at {triple}: ratio {res.best_ratio!r}"
            elif triple == (2.0, 2.0, 2.0) and res.best_ratio != math.sqrt(2.0):
                err = f"best ratio {res.best_ratio!r} != sqrt(2)"
            elif res.best_ratio < self.family[triple]:
                err = (f"best ratio {res.best_ratio!r} below the exact witness-family "
                       f"value {self.family[triple]!r}")
        ledger.record(op, err)

    @staticmethod
    def end_to_end(index: SpanIndex) -> dict[str, float]:
        spans = index.named("commutators.search_constant")
        trials = sum(s[EXTRA]["trials"] for s in spans)
        return {"trials_per_s": trials / sum(duration(s) for s in spans)}

    @staticmethod
    def per_layer(index: SpanIndex) -> dict[str, float]:
        spans = index.named("commutators.search_constant")
        out: dict[str, float] = {}
        for triple in SEARCH_TRIPLES:
            label = _triple_label(triple)
            out[f"commutators.search_s.{label}"] = sum(
                duration(s) for s in spans if s[EXTRA]["triple"] == label)
        trials = sum(s[EXTRA]["trials"] for s in spans)
        kernel = sum(index.kernel_time(s) for s in spans)
        out["commutators.search.svd_per_trial"] = sum(
            index.count(s, ("svd",)) for s in spans) / trials
        out["commutators.search.kernel_us_per_trial"] = 1e6 * kernel / trials
        out["commutators.search.self_us_per_trial"] = 1e6 * sum(
            index.self_time(s) for s in spans) / trials
        out["commutators.search.skipped_share"] = sum(
            s[EXTRA].get("skipped", 0) for s in spans) / trials
        return out


# ---------------------------------------------------------------------------
# cli: one `python -m matvar` subprocess at a time


# The verify call is the suite as a user runs it, at the default seed, so
# its inputs are the same in every round of every run.
VERIFY_TRIALS = 1
VERIFY_DIM_MAX = 4
VERIFY_SEED = 0
CLI_MATRICES = 3   # seeded 8 x 8 pairs, used in turn by successive rounds


def python_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class CliCaller:
    # One round: the four compute commands, then one verify call.
    commands = ("norm", "radius", "wradius", "bounds", "verify")
    block = min_ops = len(commands)

    def __init__(self, seed: int, src: Path, workdir: Path):
        self.seed = seed
        self.env = python_env(src)
        self.dir = workdir / f"cli-s{seed}"
        self.pairs: list[tuple[Path, Path]] = []
        self.outputs: list[tuple[str, str, list[str], str]] = []  # op, cmd, argv, stdout

    def setup(self) -> None:
        """The bundled examples plus seeded 8 x 8 matrices."""
        examples = self.dir / "examples"
        with contextlib.redirect_stdout(io.StringIO()):
            mv_cli.main(["examples", "--out", str(examples)])
        rng = np.random.default_rng([self.seed, 8])
        for k in range(CLI_MATRICES):
            x, y = self.dir / f"x{k}.json", self.dir / f"y{k}.json"
            mv_cli.save_matrix(x, mv.ginibre(8, rng))
            mv_cli.save_matrix(y, mv.ginibre(8, rng))
            self.pairs.append((x, y))

    def argv(self, cmd: str, r: int) -> list[str]:
        x, y = self.pairs[r % len(self.pairs)]
        if cmd == "norm":
            return ["compute", "norm", "--input", str(self.dir / "examples" / "f4.json"),
                    "--spec", "schatten:2", "--json"]
        if cmd == "radius":
            return ["compute", "radius", "--input", str(x), "--json"]
        if cmd == "wradius":
            return ["compute", "wradius", "--input", str(x), "--json"]
        if cmd == "bounds":
            return ["compute", "commutator-bounds", "--x", str(x), "--y", str(y),
                    "--p", "2", "--q", "2", "--r", "2", "--json"]
        return ["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
                "--dim-max", str(VERIFY_DIM_MAX), "--seed", str(VERIFY_SEED), "--json"]

    def _run(self, tracer, ledger: Ledger, cmd: str, op: str, argv: list[str]) -> None:
        with tracer.span("cli.command", op, cmd=cmd):
            proc = subprocess.run([sys.executable, "-m", "matvar", *argv], env=self.env,
                                  cwd=self.dir, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            ledger.record(op, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            self.outputs.append((op, cmd, argv, proc.stdout))

    def run_one(self, tracer, ledger: Ledger, i: int) -> None:
        """Operation i: command i % 5 of round i // 5."""
        cmd, r = self.commands[i % len(self.commands)], i // len(self.commands)
        self._run(tracer, ledger, cmd, f"cli/s{self.seed}/r{r}/{cmd}", self.argv(cmd, r))

    def check(self, ledger: Ledger) -> None:
        """Compare every printed value with the in-process result (untimed)."""
        expected: dict[tuple, dict] = {}
        for op, cmd, argv, stdout in self.outputs:
            key = (cmd, *argv)
            if key not in expected:
                expected[key] = self._expected(cmd, argv)
            got = json.loads(stdout)
            if cmd == "verify":
                got.pop("elapsed_ms")
            err = None if got == expected[key] else f"printed {got} != in-process {expected[key]}"
            ledger.record(op, err)
        self.outputs.clear()

    @staticmethod
    def _expected(cmd: str, argv: list[str]) -> dict:
        def load(flag):
            return mv_cli.load_matrix(argv[argv.index(flag) + 1])
        if cmd == "norm":
            return {"spec": "schatten:2", "value": mv.norm(load("--input"), mv.NormSpec.schatten(2))}
        if cmd == "radius":
            r = mv.radius(load("--input"), "C")
            return {"kind": r.kind, "value": r.value, "primal_value": r.primal_value, "gap": r.gap,
                    "y_star": {"re": r.y_star.real, "im": r.y_star.imag},
                    "witness": {"re": r.witness.real.tolist(), "im": r.witness.imag.tolist()}}
        if cmd == "wradius":
            z, w = mv.central_numerical_radius(load("--input"))
            return {"value": w, "center": {"re": z.real, "im": z.imag}}
        if cmd == "bounds":
            rep = mv.evaluate_bounds(load("--x"), load("--y"), 2.0, 2.0, 2.0)
            return {"lhs": rep.lhs, "ratio": rep.ratio, "p": 2.0, "q": 2.0, "r": 2.0,
                    "bounds": [{"name": e.name, "value": e.value, "holds": e.holds,
                                "slack": e.slack} for e in rep.bounds]}
        report = mv.run_suite("all", trials=VERIFY_TRIALS, dim_max=VERIFY_DIM_MAX,
                              seed=int(argv[argv.index("--seed") + 1])).to_dict()
        report.pop("elapsed_ms")
        return json.loads(json.dumps(report))

    @staticmethod
    def end_to_end(index: SpanIndex) -> dict[str, float]:
        spans = index.named("cli.command")

        def p50(cmd):
            return _p50(_ms([duration(s) for s in spans if s[EXTRA]["cmd"] == cmd]))

        return {
            "cmd_startup_ms.p50": p50("norm"),
            "cmd_radius_ms.p50": p50("radius"),
            "cmd_wradius_ms.p50": p50("wradius"),
            "cmd_bounds_ms.p50": p50("bounds"),
            "verify_s": p50("verify") / 1000.0,
        }


CALLERS = ("radii", "search", "cli")
