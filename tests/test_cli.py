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
from matvar.linalg import ginibre
from matvar.radii import ConvergenceError, central_numerical_radius


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
