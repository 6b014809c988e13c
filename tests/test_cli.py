"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import matvar.cli
from matvar.cli import (
    load_matrix,
    main,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
)
from matvar.commutators import evaluate_bounds
from matvar.linalg import ginibre, random_density, random_normal_matrix
from matvar.norms import NormSpec, norm
from matvar.radii import (
    ConvergenceError,
    central_numerical_radius,
    membership_in_range,
    numerical_radius,
    numerical_range,
    quantum_variance,
    radius,
)


@pytest.fixture()
def fixtures(tmp_path):
    out = tmp_path / "mats"
    assert main(["examples", "--out", str(out)]) == 0
    return out


def test_matrix_file_roundtrip(tmp_path):
    for trial in range(20):
        rng = np.random.default_rng([601, trial])
        a = ginibre(int(rng.integers(1, 7)), rng)
        path = tmp_path / f"m{trial}.json"
        save_matrix(path, a)
        b = load_matrix(path)
        npt.assert_array_equal(a, b)  # bit-identical round trip
        # And a second cycle through the dict form stays identical too.
        npt.assert_array_equal(matrix_from_dict(matrix_to_dict(b)), a)


def test_matrix_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_matrix(path)
    path.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}))
    with pytest.raises(ValueError, match="shape mismatch"):
        load_matrix(path)
    path.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError, match="missing field 'im'"):
        load_matrix(path)
    with pytest.raises(ValueError, match="file not found"):
        load_matrix(tmp_path / "absent.json")


@pytest.mark.parametrize("text, message", [
    ('[[1, 0], [0, 1]]', "expected a JSON object"),
    ('{"rows": 0, "cols": 2, "re": [], "im": []}', "positive integers"),
    ('{"rows": 1.0, "cols": 2, "re": [[1, 2]], "im": [[0, 0]]}', "positive integers"),
    ('{"rows": 1, "cols": "2", "re": [[1, 2]], "im": [[0, 0]]}', "positive integers"),
    ('{"rows": 1, "cols": -2, "re": [[1, 2]], "im": [[0, 0]]}', "positive integers"),
    ('{"rows": 1, "cols": 2, "re": [["a", 2]], "im": [[0, 0]]}', "must be numeric"),
    ('{"rows": 1, "cols": 2, "re": [[1, 2]], "im": [[0, {}]]}', "must be numeric"),
    ('{"rows": 1, "cols": 2, "re": [[NaN, 2]], "im": [[0, 0]]}', "must be finite"),
    ('{"rows": 1, "cols": 2, "re": [[1, 2]], "im": [[0, -Infinity]]}', "must be finite"),
    ('{"rows": true, "cols": true, "re": [[3]], "im": [[0]]}', "positive integers"),
    ('{"rows": 1, "cols": 2, "re": [[1, null]], "im": [[0, 0]]}', "must be numeric"),
], ids=["array", "zero-rows", "float-rows", "string-cols", "negative-cols",
        "string-re", "object-im", "nan", "infinity", "boolean-dims", "null-re"])
def test_bad_matrix_files_exit_with_code_two(tmp_path, capsys, text, message):
    # json.loads takes NaN and Infinity literals, so the finiteness check must
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["compute", "norm", "--spec", "schatten:2", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
def test_matrix_to_dict_rejects_arrays_that_are_not_2d(shape):
    with pytest.raises(ValueError, match="expected a 2D array"):
        matrix_to_dict(np.zeros(shape))


def test_compute_examples(fixtures, tmp_path, capsys):
    assert main(["compute", "radius", "--kind", "C",
                 "--input", str(fixtures / "pauli_z.json")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert float(first) == pytest.approx(1.0, abs=1e-9)

    assert main(["compute", "norm", "--spec", "schatten:2",
                 "--input", str(fixtures / "f4.json")]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    mixed = tmp_path / "mixed.json"
    save_matrix(mixed, np.eye(2) / 2.0)
    assert main(["compute", "variance", "--kind", "C",
                 "--input", str(fixtures / "pauli_z.json"),
                 "--rho", str(mixed)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0, abs=1e-12)


def test_compute_variance_rejects_non_density(fixtures, capsys):
    rc = main(["compute", "variance", "--kind", "C",
               "--input", str(fixtures / "pauli_z.json"),
               "--rho", str(fixtures / "pauli_x.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_compute_json_outputs(fixtures, capsys):
    assert main(["compute", "radius", "--kind", "C", "--json",
                 "--input", str(fixtures / "e12.json")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == pytest.approx(2.0 ** -0.5, abs=1e-6)
    assert abs(complex(obj["y_star"]["re"], obj["y_star"]["im"])) <= 1e-6
    assert obj["gap"] <= 1e-6

    assert main(["compute", "numrange", "--json", "--angles", "64",
                 "--input", str(fixtures / "e12.json")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["numerical_radius"] == pytest.approx(0.5, abs=1e-9)
    assert len(obj["support_values"]) == 64
    npt.assert_allclose(obj["support_values"], 0.5, atol=1e-9)

    assert main(["compute", "numrange", "--z", "0.2,0.1",
                 "--input", str(fixtures / "e12.json"), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["member"] is True and obj["margin"] >= 0.0

    assert main(["compute", "wradius", "--json",
                 "--input", str(fixtures / "f3.json")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == pytest.approx(0.5, abs=1e-6)
    assert complex(obj["center"]["re"], obj["center"]["im"]) == pytest.approx(0.5, abs=1e-6)


def test_wradius_default_matches_the_library(tmp_path, capsys):
    # without --angles the command prints the library's default call exactly
    for trial in range(6):
        rng = np.random.default_rng([602, trial])
        x = ginibre(int(rng.integers(2, 9)), rng)
        path = tmp_path / f"m{trial}.json"
        save_matrix(path, x)
        assert main(["compute", "wradius", "--json", "--input", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        z, value = central_numerical_radius(load_matrix(path))
        assert obj == {"value": value, "center": {"re": z.real, "im": z.imag}}


def test_compute_commands_print_the_library_default_call(tmp_path, capsys):
    # every other compute command prints its library call at the library's
    # defaults, bit for bit; numrange's --angles sets only the --json sample
    def run(*argv) -> str:
        assert main(["compute", *map(str, argv)]) == 0
        return capsys.readouterr().out

    def vector(v):
        return {"re": v.real.tolist(), "im": v.imag.tolist()}

    for trial, d in enumerate((2, 4, 7, 10, 13, 16)):
        rng = np.random.default_rng([603, trial])
        x = (random_normal_matrix if trial % 2 else ginibre)(d, rng)
        files = {"x": tmp_path / "x.json", "y": tmp_path / "y.json", "rho": tmp_path / "rho.json"}
        for key, matrix in (("x", x), ("y", ginibre(d, rng)), ("rho", random_density(d, 1 + trial % d, rng))):
            save_matrix(files[key], matrix)
        x, y, rho = (load_matrix(files[key]) for key in ("x", "y", "rho"))

        for spec in ("schatten:1", "schatten:inf", "kyfanpk:2:2"):
            obj = json.loads(run("norm", "--json", "--spec", spec, "--input", files["x"]))
            spec = NormSpec.parse(spec)
            assert obj == {"spec": spec.label(), "value": norm(x, spec)}
        for kind in ("L", "R", "C"):
            obj = json.loads(run("radius", "--json", "--kind", kind, "--input", files["x"]))
            res = radius(x, kind)
            assert obj == {"kind": kind, "value": res.value,
                           "y_star": {"re": res.y_star.real, "im": res.y_star.imag},
                           "primal_value": res.primal_value, "gap": res.gap,
                           "witness": vector(res.witness)}
            obj = json.loads(run("variance", "--json", "--kind", kind,
                                 "--input", files["x"], "--rho", files["rho"]))
            assert obj == {"kind": kind, "value": quantum_variance(x, rho, kind)}
        for pqr in ((2, 2, 2), (2, 4, 4)):
            obj = json.loads(run("commutator-bounds", "--json", "--x", files["x"], "--y", files["y"],
                                 *(f"--{n}={v}" for n, v in zip("pqr", pqr))))
            rep = evaluate_bounds(x, y, *pqr)
            assert obj == {"lhs": rep.lhs, "ratio": rep.ratio, "p": pqr[0], "q": pqr[1], "r": pqr[2],
                           "bounds": [{"name": e.name, "value": e.value, "holds": e.holds,
                                       "slack": e.slack} for e in rep.bounds]}

        w = numerical_radius(x)
        assert run("numrange", "--input", files["x"]) == f"{w:.12g}\n"
        for angles in (None, 64):
            flag = () if angles is None else ("--angles", angles)
            obj = json.loads(run("numrange", "--json", *flag, "--input", files["x"]))
            sample = numerical_range(x, angles or 360)
            assert obj == {"numerical_radius": w, "angles": sample.angles.tolist(),
                           "support_values": sample.support_values.tolist(),
                           "boundary": vector(sample.boundary_points)}
            assert len(obj["angles"]) == (angles or 360)
            centroid = complex(np.trace(x)) / d
            for z in (centroid, centroid + 2.5 * w):  # inside W(X), and outside it
                obj = json.loads(run("numrange", "--json", *flag, f"--z={z.real!r},{z.imag!r}",
                                     "--input", files["x"]))
                res = membership_in_range(x, z)
                assert obj == {"z": {"re": z.real, "im": z.imag}, "member": res.member,
                               "margin": res.margin}

    # the recentred radius has no seed flag: it always prints the default call
    with pytest.raises(SystemExit) as exc:
        main(["compute", "wradius", "--angles", "8", "--input", str(files["x"])])
    assert exc.value.code == 2


def test_numrange_membership_ignores_angles(tmp_path, capsys):
    # --angles sizes only the --json sample: --z prints the same bytes without it
    def run(*argv) -> str:
        assert main(["compute", "numrange", *argv]) == 0
        return capsys.readouterr().out

    for trial, d in enumerate((2, 5, 9)):
        rng = np.random.default_rng([604, trial])
        path = tmp_path / "x.json"
        save_matrix(path, ginibre(d, rng))
        for z in ("0,0", "0.3,-0.2", "4,1"):
            for fmt in ((), ("--json",)):
                out = run("--input", str(path), "--z", z, *fmt)
                for angles in ("8", "9", "720"):
                    assert run("--input", str(path), "--z", z, "--angles", angles, *fmt) == out


def test_commutator_bounds_cli(fixtures, capsys):
    assert main(["compute", "commutator-bounds",
                 "--x", str(fixtures / "pauli_x.json"),
                 "--y", str(fixtures / "pauli_z.json"),
                 "--p", "2", "--q", "2", "--r", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lhs"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert obj["ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    by_name = {e["name"]: e for e in obj["bounds"]}
    assert by_name["frobenius"]["holds"] is True
    assert abs(by_name["frobenius"]["slack"]) <= 1e-12


def test_commutator_bounds_text_output(fixtures, tmp_path, capsys):
    def lines(x, y, *extra):
        assert main(["compute", "commutator-bounds", "--x", str(x), "--y", str(y),
                     "--p", "2", "--q", "2", "--r", "2", *extra]) == 0
        return capsys.readouterr().out.splitlines()

    out = lines(fixtures / "pauli_x.json", fixtures / "e12.json")
    assert out[0] == "lhs: 1.41421356237" and out[-1] == "ratio: 1"
    assert out[1].split() == ["frobenius", "2", "(holds,", "slack", "+5.858e-01)"]
    assert len(out) == 7 and all("(holds, slack " in line for line in out[1:-1])
    # a negative tolerance asks every bound to clear the commutator norm by
    # that share of itself, which these tight ones do not
    out = lines(fixtures / "e21.json", fixtures / "e12.json", "--tol", "-0.2")
    assert out[1].split() == ["frobenius", "1.41421356237", "(VIOLATED,", "slack", "+0.000e+00)"]
    assert len(out) == 7 and all("(VIOLATED, slack " in line for line in out[1:-1])
    zero = tmp_path / "zero.json"
    save_matrix(zero, np.zeros((2, 2)))
    out = lines(zero, fixtures / "pauli_z.json")
    assert out[0] == "lhs: 0" and out[-1] == "ratio: undefined (zero denominator)"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["verify", "--suite", "scalar", "--trials", "2", "--dim-max", "3"],
    ["compute", "commutator-bounds", "--x", "{x}", "--y", "{z}", "--p", "2", "--q", "2", "--r", "2"],
], ids=["verify", "commutator-bounds"])
def test_a_tolerance_that_is_not_finite_exits_with_code_two(fixtures, capsys, command, tol):
    # nan would fail every verdict that reads the tolerance, and inf pass every one
    paths = {"x": fixtures / "pauli_x.json", "z": fixtures / "pauli_z.json"}
    rc = main([a.format(**paths) for a in command] + [f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"error: the tolerance must be finite, got {tol}\n"


def test_verify_cli(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--suite", "norms", "--trials", "5", "--dim-max", "4",
               "--seed", "3", "--report", str(report_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("[PASS]")) == 4
    obj = json.loads(report_path.read_text())
    assert obj["suite"] == "norms"
    assert obj["seed"] == 3 and obj["trials"] == 5
    for check in obj["checks"]:
        assert set(check) == {"id", "pass", "fail", "worst_slack", "witness"}
        assert check["pass"] + check["fail"] == 5
        assert check["fail"] == 0
    assert isinstance(obj["elapsed_ms"], int)


def test_verify_deterministic_json(capsys):
    def run():
        rc = main(["verify", "--suite", "scalar", "--trials", "4",
                   "--dim-max", "5", "--seed", "9", "--json"])
        out = json.loads(capsys.readouterr().out)
        return rc, out

    rc1, a = run()
    rc2, b = run()
    assert rc1 == rc2 == 0
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b  # byte-identical up to the timing field


def test_verify_smoke_all(capsys):
    rc = main(["verify", "--suite", "all", "--trials", "1",
               "--dim-max", "2", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_search_cli(tmp_path, capsys):
    witness_dir = tmp_path / "wit"
    argv = ["search", "--p", "2", "--q", "2", "--r", "2", "--dims", "2",
            "--trials", "8", "--seed", "7", "--json",
            "--save-witness", str(witness_dir)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert obj["best_ratio"] == math.sqrt(2.0)  # bit-exact
    assert obj["conjectured"] == math.sqrt(2.0)
    assert obj["gap"] == 0.0
    assert obj["falsification"] is False
    x = load_matrix(witness_dir / "witness_x.json")
    y = load_matrix(witness_dir / "witness_y.json")
    assert x.shape == y.shape == (2, 2)

    assert main(argv) == 0
    assert capsys.readouterr().out == first  # byte-identical repeat run


def test_search_text_output(capsys):
    assert main(["search", "--p", "2", "--q", "2", "--r", "2", "--dims", "2",
                 "--trials", "8", "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "best_ratio: 1.41421356237  (from family:pauli_pair)",
        "conjectured: 1.41421356237  gap: 0",
    ]


@pytest.mark.parametrize("args", [
    ["--p", "2", "--q", "2", "--r", "2", "--trials", "0"],
    ["--p", "1", "--q", "4", "--r", "4"],
], ids=["no-trials", "exponents"])
def test_rejected_search_leaves_no_witness_directory(tmp_path, capsys, args):
    # the arguments are checked before the witness directory is made
    out = tmp_path / "newdir"
    assert main(["search", *args, "--save-witness", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_search_cli_gap_and_errors(capsys):
    rc = main(["search", "--p", "2", "--q", "2", "--r", "inf", "--dims", "2",
               "--trials", "5", "--seed", "7", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["conjectured"] == 2.0
    assert obj["best_ratio"] >= math.sqrt(2.0)
    assert obj["r"] == "inf"

    rc = main(["search", "--p", "1", "--q", "4", "--r", "4",
               "--trials", "5", "--seed", "0"])
    assert rc == 2
    assert "1/p <= 1/q + 1/r" in capsys.readouterr().err


def test_cli_flag_errors(fixtures, capsys):
    with pytest.raises(SystemExit):
        main(["compute", "norm", "--input", str(fixtures / "f2.json"),
              "--spec"])  # missing value
    capsys.readouterr()
    rc = main(["compute", "norm", "--input", str(fixtures / "f2.json"),
               "--spec", "schatten:0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["compute", "commutator-bounds", "--x", "a.json", "--y", "b.json",
              "--p", "bogus", "--q", "2", "--r", "2"])
    with pytest.raises(SystemExit):  # no compute command but commutator-bounds reads a tolerance
        main(["compute", "radius", "--input", str(fixtures / "e12.json"), "--tol", "1e-3"])
    rc = main(["compute", "norm", "--input", "/nonexistent.json",
               "--spec", "schatten:2"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["compute", "numrange", "--input", "{f2}", "--z", "1"],
    ["compute", "numrange", "--input", "{f2}", "--z", "a,b"],
    ["compute", "numrange", "--input", "{f2}", "--z=nan,0"],
    ["compute", "numrange", "--input", "{f2}", "--z=inf,0"],
    ["compute", "numrange", "--input", "{f2}", "--z=0,-inf"],
    ["search", "--p", "2", "--q", "2", "--r", "2", "--dims", "2,x"],
    ["search", "--p", "2", "--q", "2", "--r", "2", "--dims", "2.5"],
], ids=["z-one-part", "z-not-numeric", "z-nan", "z-inf", "z-minus-inf-imaginary", "dims-not-integer",
        "dims-fraction"])
def test_flag_values_that_do_not_parse_exit_with_code_two(fixtures, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([a.format(f2=fixtures / "f2.json") for a in args])
    assert exc.value.code == 2
    assert "expected " in capsys.readouterr().err


def test_compute_near_the_largest_float(tmp_path, capsys):
    # finite inputs near the largest float are rescaled, not lost to overflow
    t = 1.7e308
    path = tmp_path / "near_max.json"
    save_matrix(path, np.diag([t, -t, -t]))
    for quantity in ("radius", "wradius"):
        assert main(["compute", quantity, "--input", str(path)]) == 0
        assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(t, rel=1e-11)
    save_matrix(path, np.diag([t, -t]))
    assert main(["compute", "numrange", "--input", str(path), "--z", "0,0"]) == 0
    assert capsys.readouterr().out.startswith("inside")
    # ... and results beyond it are rejected with one line and exit code 2
    save_matrix(path, np.full((3, 3), t))
    for quantity in ("radius", "wradius"):
        assert main(["compute", quantity, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the ") and err.endswith(" overflows\n")
        assert err.count("\n") == 1
    save_matrix(path, np.diag([t * (1 + 1j), -t]))
    for spec in ("schatten:inf", "schatten:2"):
        assert main(["compute", "norm", "--input", str(path), "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the singular values") and err.endswith(" overflows\n")
        assert err.count("\n") == 1
    save_matrix(path, np.diag([t, -t]))
    for spec in ("kyfan:2", "schatten:1", "gauge:1,1"):
        assert main(["compute", "norm", "--input", str(path), "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the norm") and err.endswith(" overflows\n")
        assert err.count("\n") == 1
    rho = tmp_path / "rho.json"
    save_matrix(path, np.diag([t, -t, -t]))
    save_matrix(rho, np.eye(3) / 3.0)
    assert main(["compute", "variance", "--kind", "C", "--input", str(path), "--rho", str(rho)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the variance") and err.endswith(" overflows\n")
    assert err.count("\n") == 1


NEAR_MAX = 1.7e308
EXTREME_INPUTS = {
    "near_max": np.diag([NEAR_MAX, -NEAR_MAX, -NEAR_MAX]),
    "nilpotent": np.array([[0.0, NEAR_MAX], [0.0, 0.0]]),
    "subnormal": 1e-310 * np.array([[1, 2], [3, 4j]]),
    "past_max": np.diag([NEAR_MAX * (1 + 1j), -NEAR_MAX]),
}
ORDINARY_PARTNERS = {2: np.array([[1, 2], [3, 4j]]), 3: np.array([[1, 2, 0], [3, 4j, 0], [0, 0, 5]])}
COMPUTE_COMMANDS = [
    *[("norm", "--input", "X", "--spec", spec)
      for spec in ("schatten:1", "schatten:2", "schatten:inf", "kyfan:2", "gauge:1,0.5,0.25")],
    *[("radius", "--input", "X", "--kind", kind) for kind in ("L", "R", "C")],
    ("variance", "--input", "X", "--rho", "RHO"),
    ("numrange", "--input", "X"),
    ("numrange", "--input", "X", "--z", "0.5,-0.5"),
    ("wradius", "--input", "X"),
    ("commutator-bounds", "--x", "X", "--y", "X", "--p", "2", "--q", "2", "--r", "2"),
    ("commutator-bounds", "--x", "X", "--y", "Y", "--p", "2", "--q", "2", "--r", "2"),
]


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(EXTREME_INPUTS))
@pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=" ".join)
def test_every_compute_command_on_extreme_inputs(tmp_path, capsys, command, name):
    # a finite input far from unit scale gives finite output, or one line
    # naming the result past the largest float and exit code 2; never a
    # RuntimeWarning or a traceback
    x = EXTREME_INPUTS[name]
    d = x.shape[0]
    files = {"X": tmp_path / "x.json", "Y": tmp_path / "y.json", "RHO": tmp_path / "rho.json"}
    for key, matrix in (("X", x), ("Y", ORDINARY_PARTNERS[d]), ("RHO", np.eye(d) / d)):
        save_matrix(files[key], matrix)
    rc = main(["compute", *(str(files.get(a, a)) for a in command), "--json"])
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == "" and _finite_numbers(json.loads(out))
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error: the ") and err.endswith(" overflows\n") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [ConvergenceError("center search hit its cap"),
                                 OverflowError("result out of range"),
                                 np.linalg.LinAlgError("eigh did not converge")])
def test_numerical_failures_exit_with_code_two(fixtures, capsys, monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(matvar.cli, "radius", failing)
    rc = main(["compute", "radius", "--input", str(fixtures / "e12.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


@pytest.mark.parametrize("command", [
    ["examples", "--out", "{file}"],
    ["search", "--p", "2", "--q", "2", "--r", "2", "--trials", "1", "--save-witness", "{file}"],
    ["verify", "--suite", "scalar", "--trials", "1", "--report", "{missing}/r.json"],
    ["compute", "norm", "--input", "{dir}", "--spec", "schatten:2"],
], ids=lambda command: command[0])
def test_unusable_paths_exit_with_code_two(tmp_path, capsys, command):
    # a path that cannot be read or written is one error line and exit code
    # 2, not a traceback and the exit code of a failed verify run
    (tmp_path / "file").write_text("")
    paths = {"file": tmp_path / "file", "missing": tmp_path / "missing", "dir": tmp_path}
    rc = main([a.format(**paths) for a in command])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "all", "--report", "{missing}/r.json"],
    ["verify", "--suite", "all", "--report", "{dir}"],
    ["search", "--p", "2", "--q", "2", "--r", "2", "--save-witness", "{file}"],
], ids=["report-in-missing-dir", "report-is-dir", "witness-dir-is-file"])
def test_unusable_paths_fail_before_the_run(tmp_path, capsys, monkeypatch, command):
    # the output path is checked before the suite or the search starts, so
    # an unusable one costs no work
    def never(*args, **kwargs):
        raise AssertionError("the run started before its output path was checked")

    monkeypatch.setattr(matvar.cli, "run_suite", never)
    monkeypatch.setattr(matvar.cli, "search_constant", never)
    test_unusable_paths_exit_with_code_two(tmp_path, capsys, command)


def test_python_dash_m_entrypoint(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "matvar", "compute", "norm",
         "--spec", "kyfan:1", "--input", str(fixtures / "pauli_x.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(1.0, abs=1e-12)


def test_closed_pipe_exits_quietly_with_code_two(fixtures):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "matvar", "compute", "radius", "--json",
             "--input", str(fixtures / "f4.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 2


def test_verify_all_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail
    code = ("import sys; sys.modules['scipy'] = None; import matvar.cli; "
            "sys.exit(matvar.cli.main(['verify', '--suite', 'all', '--trials', '2', "
            "'--dim-max', '4']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
