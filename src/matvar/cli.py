"""Command-line front end: matrix I/O, single-quantity computations,
property-suite verification, and the commutator-constant search.

Matrices travel as JSON files with paired real/imaginary arrays:
``{"rows": int, "cols": int, "re": [[float]], "im": [[float]]}``.
Serialization uses Python's shortest round-trip float formatting, so a
save/load cycle is bit-identical for finite doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from .commutators import _search_arguments, evaluate_bounds, search_constant, witness_families
from .linalg import MODULUS_KINDS, PAULI_X, PAULI_Y, PAULI_Z, basis_matrix, f_matrix
from .norms import NormSpec, _as_p, norm
from .radii import (
    ConvergenceError,
    central_numerical_radius,
    membership_in_range,
    numerical_radius,
    numerical_range,
    quantum_variance,
    radius,
)
from .suites import SUITE_NAMES, run_suite

__all__ = ["main", "load_matrix", "save_matrix", "matrix_to_dict", "matrix_from_dict"]


# ---------------------------------------------------------------------------
# matrix file I/O


def matrix_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {a.shape}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_dict(obj: dict, origin: str = "<matrix>") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"{origin}: expected a JSON object")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ValueError(f"{origin}: missing field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not all(type(n) is int and n > 0 for n in (rows, cols)):  # JSON true is an int in Python
        raise ValueError(f"{origin}: rows/cols must be positive integers")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{origin}: re/im must be numeric 2D arrays ({exc})") from exc
    expect = (rows, cols)
    if re.shape != expect or im.shape != expect:
        raise ValueError(
            f"{origin}: shape mismatch, rows x cols = {expect} but "
            f"re is {re.shape} and im is {im.shape}")
    for entry in (v for key in ("re", "im") for row in obj[key] for v in row):
        if isinstance(entry, bool) or not isinstance(entry, numbers.Real):  # null, true and "1" convert too
            entry = json.dumps(entry, default=repr)
            raise ValueError(f"{origin}: re/im must be numeric 2D arrays (entry {entry})")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{origin}: entries must be finite")
    return re + 1j * im


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return matrix_from_dict(obj, origin=str(path))


def save_matrix(path: str | Path, a: np.ndarray) -> None:
    Path(path).write_text(_dumps(matrix_to_dict(a)) + "\n")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _json_float(v: float):
    # JSON has no infinity: an infinite exponent, or a square past the largest float, is "inf"
    return "inf" if math.isinf(v) else v


# ---------------------------------------------------------------------------
# argument parsing helpers


def _exponent(name: str):
    """argparse type of the Schatten exponent flag --name."""
    def parse(text: str) -> float:
        try:
            return _as_p(text, name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _complex_pair(text: str) -> complex:
    # membership_in_range rejects a part that is not finite
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'RE,IM' with numeric parts (e.g. '0.5,-1.0'), got {text!r}")


def _dims_list(text: str) -> tuple[int, ...]:
    # the search rejects a dimension below 2
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matvar",
        description="Matrix variance bounds, replacement radii, and commutator norm constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a single quantity from matrix files")
    csub = compute.add_subparsers(dest="quantity", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="matrix JSON file")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_norm = csub.add_parser("norm", help="unitarily invariant norm of a matrix")
    add_common(p_norm)
    p_norm.add_argument("--spec", required=True,
                        help="norm spec, e.g. schatten:2, kyfan:3, kyfanpk:2:2, gauge:1,0.5")

    p_rad = csub.add_parser("radius", help="minimal spectral-norm replacement radius")
    add_common(p_rad)
    p_rad.add_argument("--kind", choices=MODULUS_KINDS, default="C")

    p_var = csub.add_parser("variance", help="state variance of a matrix observable")
    add_common(p_var)
    p_var.add_argument("--rho", required=True, help="density matrix JSON file")
    p_var.add_argument("--kind", choices=MODULUS_KINDS, default="C")

    p_nr = csub.add_parser("numrange", help="numerical radius, or membership of a point")
    add_common(p_nr)
    p_nr.add_argument("--angles", type=int, default=360,
                      help="support angles of the --json sample only, never of --z")
    p_nr.add_argument("--z", type=_complex_pair, default=None,
                      help="test membership of the point RE,IM instead")

    p_wr = csub.add_parser("wradius", help="radius of the smallest disk containing the numerical range")
    add_common(p_wr)

    p_cb = csub.add_parser("commutator-bounds", help="evaluate commutator norm bounds on a pair")
    p_cb.add_argument("--x", required=True, help="matrix JSON file for X")
    p_cb.add_argument("--y", required=True, help="matrix JSON file for Y")
    for name in "pqr":
        p_cb.add_argument(f"--{name}", type=_exponent(name), required=True)
    p_cb.add_argument("--json", action="store_true")
    p_cb.add_argument("--tol", type=float, default=1e-9,
                      help="relative slack a bound may fall short by and still hold (default 1e-9)")

    verify = sub.add_parser("verify", help="run a randomized property suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--dim-max", type=int, default=8)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--report", default=None, help="write the JSON report to this path")
    verify.add_argument("--json", action="store_true", help="print the JSON report instead of lines")

    search = sub.add_parser("search", help="randomized search for the best commutator constant")
    for name in "pqr":
        search.add_argument(f"--{name}", type=_exponent(name), required=True)
    search.add_argument("--dims", type=_dims_list, default=(2, 3))
    search.add_argument("--trials", type=int, default=1000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--save-witness", default=None, metavar="DIR",
                        help="write the best pair to DIR/witness_x.json and DIR/witness_y.json")
    search.add_argument("--json", action="store_true")

    examples = sub.add_parser("examples", help="write the bundled example matrices to a directory")
    examples.add_argument("--out", required=True, metavar="DIR")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _emit(args, obj: dict, *lines: str) -> int:
    """Print ``obj`` as JSON with --json, else the text lines."""
    print(_dumps(obj) if args.json else "\n".join(lines))
    return 0


def _cmd_norm(args) -> int:
    x = load_matrix(args.input)
    spec = NormSpec.parse(args.spec)
    value = norm(x, spec)
    return _emit(args, {"spec": spec.label(), "value": value}, f"{value:.12g}")


def _cmd_radius(args) -> int:
    x = load_matrix(args.input)
    res = radius(x, args.kind)
    return _emit(args, {
        "kind": res.kind,
        "value": res.value,
        "y_star": {"re": res.y_star.real, "im": res.y_star.imag},
        "primal_value": _json_float(res.primal_value),
        "gap": _json_float(res.gap),
        "witness": {"re": res.witness.real.tolist(),
                    "im": res.witness.imag.tolist()},
    }, f"{res.value:.12g}",
        f"center: {res.y_star.real:.12g}{res.y_star.imag:+.12g}i  gap: {res.gap:.3e}")


def _cmd_variance(args) -> int:
    x = load_matrix(args.input)
    rho = load_matrix(args.rho)
    value = quantum_variance(x, rho, args.kind)
    return _emit(args, {"kind": args.kind, "value": value}, f"{value:.12g}")


def _cmd_numrange(args) -> int:
    x = load_matrix(args.input)
    if args.z is not None:
        res = membership_in_range(x, args.z)
        return _emit(args, {"z": {"re": args.z.real, "im": args.z.imag},
                            "member": res.member, "margin": res.margin},
                     f"{'inside' if res.member else 'outside'}  margin: {res.margin:.6g}")
    w = numerical_radius(x)
    if args.json:  # the sample is solved only when it is printed
        sample = numerical_range(x, args.angles)
        print(_dumps({
            "numerical_radius": w,
            "angles": sample.angles.tolist(),
            "support_values": sample.support_values.tolist(),
            "boundary": {"re": sample.boundary_points.real.tolist(),
                         "im": sample.boundary_points.imag.tolist()},
        }))
    else:
        print(f"{w:.12g}")
    return 0


def _cmd_wradius(args) -> int:
    x = load_matrix(args.input)
    z, value = central_numerical_radius(x)
    return _emit(args, {"value": value, "center": {"re": z.real, "im": z.imag}},
                 f"{value:.12g}", f"center: {z.real:.12g}{z.imag:+.12g}i")


def _cmd_commutator_bounds(args) -> int:
    x = load_matrix(args.x)
    y = load_matrix(args.y)
    rep = evaluate_bounds(x, y, args.p, args.q, args.r, slack_tol=args.tol)
    bounds = [f"  {e.name:24s} {e.value:.12g}  ({'holds' if e.holds else 'VIOLATED'}, "
              f"slack {e.slack:+.3e})" for e in rep.bounds]
    ratio = "undefined (zero denominator)" if rep.ratio is None else f"{rep.ratio:.12g}"
    return _emit(args, {
        "lhs": rep.lhs,
        "ratio": rep.ratio,
        "p": _json_float(args.p), "q": _json_float(args.q), "r": _json_float(args.r),
        "bounds": [{"name": e.name, "value": e.value,
                    "holds": e.holds, "slack": e.slack} for e in rep.bounds],
    }, f"lhs: {rep.lhs:.12g}", *bounds, f"ratio: {ratio}")


def _cmd_verify(args) -> int:
    path = args.report and Path(args.report)
    if path and (path.is_dir() or not path.parent.is_dir()):  # fail before the run, not after it
        raise OSError(f"cannot write the report {args.report!r}: "
                      + ("it is a directory" if path.is_dir() else "its parent is not a directory"))
    report = run_suite(args.suite, trials=args.trials, dim_max=args.dim_max,
                       seed=args.seed, tol=args.tol)
    obj = report.to_dict()
    if path:
        path.write_text(_dumps(obj) + "\n")
    lines = []
    for c in report.checks:
        status = "PASS" if c.failed == 0 else "FAIL"
        witness = f"  witness: {c.witness}" if c.failed or c.witness else ""
        lines.append(f"[{status}] {c.check_id}: pass={c.passed} fail={c.failed} "
                     f"worst_slack={c.worst_slack:+.6e}{witness}")
    _emit(args, obj, *lines, f"{report.suite}: {report.total_failures} failures "
          f"({report.trials} trials/check, {report.elapsed_ms} ms)")
    return 0 if report.total_failures == 0 else 1


def _cmd_search(args) -> int:
    out = args.save_witness and Path(args.save_witness)
    if out:  # an unusable path fails before the search, and bad arguments before the path is made
        _search_arguments(args.p, args.q, args.r, args.dims, args.trials, args.seed)
        out.mkdir(parents=True, exist_ok=True)
    res = search_constant(args.p, args.q, args.r, args.dims,
                          trials=args.trials, seed=args.seed)
    if out:
        save_matrix(out / "witness_x.json", res.witness_x)
        save_matrix(out / "witness_y.json", res.witness_y)
    obj = {
        "best_ratio": res.best_ratio,
        "witness_source": res.witness_source,
        "witness_x": matrix_to_dict(res.witness_x),
        "witness_y": matrix_to_dict(res.witness_y),
        "trials": res.trials,
        "skipped": res.skipped,
        "falsification": res.falsification,
        "dims_tried": list(res.dims_tried),
        "seed": res.seed,
        "p": _json_float(res.p), "q": _json_float(res.q), "r": _json_float(res.r),
    }
    lines = [f"best_ratio: {res.best_ratio:.12g}  (from {res.witness_source})"]
    if res.conjectured is not None:
        obj["conjectured"] = res.conjectured
        obj["gap"] = res.conjectured - res.best_ratio
        lines.append(f"conjectured: {res.conjectured:.12g}  gap: {obj['gap']:.6g}")
    if res.falsification:
        lines.append("FALSIFICATION CANDIDATE: ratio exceeds the conjectured "
                     "constant by more than 1e-6; inspect the witness pair.")
    if res.skipped:
        lines.append(f"skipped: {res.skipped} trials with denominator below 1e-14")
    return _emit(args, obj, *lines)


_EXAMPLES = {
    "pauli_x": PAULI_X,
    "pauli_y": PAULI_Y,
    "pauli_z": PAULI_Z,
    "e12": basis_matrix(1, 2, 2),
    "e21": basis_matrix(2, 1, 2),
    "f2": f_matrix(2),
    "f3": f_matrix(3),
    "f4": f_matrix(4),
}


def _cmd_examples(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pair = {f.name: f for f in witness_families(2, 2, 2)}["contraction_unitary"]
    names = dict(_EXAMPLES, contraction=pair.x, reflection=pair.y)
    for name, matrix in sorted(names.items()):
        save_matrix(out / f"{name}.json", matrix)
    print(f"wrote {len(names)} matrices to {out}")
    return 0


_DISPATCH = {
    "norm": _cmd_norm,
    "radius": _cmd_radius,
    "variance": _cmd_variance,
    "numrange": _cmd_numrange,
    "wradius": _cmd_wradius,
    "commutator-bounds": _cmd_commutator_bounds,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.quantity if args.command == "compute" else args.command](args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone: send what is still buffered nowhere, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, ConvergenceError, OverflowError, OSError, MemoryError) as exc:
        # ValueError covers np.linalg.LinAlgError, OSError a path that cannot
        # be read or written (BrokenPipeError, also an OSError, is caught
        # above), MemoryError an array larger than the machine can allocate;
        # exit code 1 is reserved for verify runs whose checks failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
